// The cell registry: Beehive's distributed locking mechanism.
//
// The paper delegates cell-to-bee ownership to "a distributed locking
// mechanism (e.g., Chubby)". We implement that service in-cluster: an
// authoritative RegistryService logically hosted on one hive (hive 0 by
// default), fronted on every hive by a RegistryClient that keeps a
// write-through cache of ownership. As in Chubby, the master invalidates
// client caches when ownership changes; the service runs in-process, so
// every invalidation reaches its client synchronously and a cached
// assignment stays valid until one arrives. All RPC and invalidation
// traffic is accounted on the control channel, so registry cost is visible
// in the Figure 4 bandwidth numbers.
//
// The registry is the single arbiter of the platform's core invariant:
// every cell is owned by exactly one live bee, and any two cell sets that
// intersect resolve to the same bee. When a resolve discovers that a
// message's mapped cells span several existing bees (the collocation
// obligation of paper §2), the registry atomically reassigns all involved
// cells to a winner and reports the losers so the hives can merge state.
//
// -- Control-plane scale (DESIGN.md §13) ------------------------------------
// The service is internally partitioned into N independent shards by
// cell-key hash. Each shard owns its own mutex, ownership tables, bee
// records (a bee is "homed" in the shard of the cells it was created for)
// and cacher lists, so resolves against disjoint key ranges never contend.
// The public API is unchanged: a thin router computes the set of shards an
// operation touches and locks exactly those, in ascending index order;
// when the decision turns out to involve bees homed elsewhere (a
// cross-shard merge), the router releases everything and retries with the
// expanded set — the classic lock-coupling restart, which single-shard
// steady-state traffic never pays.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/channel.h"
#include "state/cell.h"
#include "util/types.h"

namespace beehive {

struct BeeRecord {
  BeeId id = kNoBee;
  AppId app = 0;
  HiveId hive = 0;
  CellSet cells;
  bool pinned = false;    ///< Never migrated / never loses a merge (drivers).
  bool dead = false;
  BeeId forwarded_to = kNoBee;  ///< Where this bee's cells went on merge.
  /// Migration epoch: bumped by begin_migration and cancel_migration, so a
  /// commit_migration carrying a stale epoch (a transfer frame that out-
  /// lived its migration's abort) is rejected instead of moving the bee.
  std::uint64_t mig_epoch = 0;
  /// Monotonic count of state transfers decided *into* this bee (one per
  /// merge loser). Messages carry this as a fence: the bee must have
  /// applied at least this many transfers before processing them.
  std::uint64_t transfers_expected = 0;
};

struct ResolveOutcome {
  BeeId bee = kNoBee;
  HiveId hive = 0;
  bool created = false;
  /// The winner's transfers_expected after this decision. A cache hit
  /// returns the largest value the master has reported to this client for
  /// the bee, so the hit carries the fence of the decision that filled it.
  std::uint64_t transfers_expected = 0;
  /// Bees whose cells were just reassigned to `bee`; the caller must
  /// arrange state transfer (merge) from each loser into `bee`.
  struct Loser {
    BeeId bee;
    HiveId hive;
  };
  std::vector<Loser> losers;
};

/// One shard's contention/throughput counters, for /metrics and beectl.
struct RegistryShardStats {
  std::uint64_t ops = 0;            ///< locked operations through the shard
  std::uint64_t lock_waits = 0;     ///< acquisitions that contended
  std::uint64_t lock_wait_ns = 0;   ///< total time spent waiting for the lock
  std::uint64_t invalidations = 0;  ///< cache-invalidation events issued
  std::uint64_t resolves = 0;       ///< resolve decisions anchored here
};

class RegistryService {
 public:
  /// Default shard count; 8 keeps single-lock behavior measurable in
  /// benches (pass 1) while removing the global-mutex hotspot by default.
  static constexpr std::size_t kDefaultShards = 8;
  /// Shard sets are tracked as a 64-bit mask; counts are clamped to this.
  static constexpr std::size_t kMaxShards = 64;
  /// Sentinel shard index: home_of's answer for a bee id it does not know.
  static constexpr std::uint32_t kAllShards = 0xffffffffu;

  /// `meter` may be null (tests); `registry_hive` is where the service
  /// logically runs — RPCs from other hives are billed to the channel.
  RegistryService(std::size_t n_hives, ChannelMeter* meter,
                  HiveId registry_hive = 0,
                  std::size_t n_shards = kDefaultShards);

  /// Benches override initial placement (the paper's "artificially assign
  /// the cells of all switches to the bees on the first hive"). Returning
  /// the requester's id reproduces the default local-creation rule.
  using PlacementHook =
      std::function<HiveId(AppId, const CellSet&, HiveId requester)>;
  void set_placement_hook(PlacementHook hook);

  /// The core lock operation; see file comment. `requester` is billed for
  /// the RPC unless it is the registry hive itself or the lookup was
  /// served from its client cache (the client handles that).
  ResolveOutcome resolve_or_create(AppId app, const CellSet& cells,
                                   HiveId requester, bool pinned,
                                   TimePoint now);

  /// Re-points a live bee to a new hive (migration commit).
  void move_bee(BeeId bee, HiveId to, TimePoint now);

  /// move_bee plus control-channel billing for the RPC from `requester`.
  void move_bee_rpc(BeeId bee, HiveId to, HiveId requester, TimePoint now);

  // -- Migration epochs ------------------------------------------------------
  // The source hive mints an epoch when it freezes a bee for migration; the
  // target commits the move conditionally on that epoch. Aborting the
  // migration bumps the epoch, so a zombie transfer frame that arrives
  // after the abort can no longer re-home the bee (split-brain guard).

  /// Starts (or restarts) a migration of `bee`: bumps and returns its
  /// epoch. Returns 0 for unknown/dead bees.
  std::uint64_t begin_migration(BeeId bee, HiveId requester, TimePoint now);

  /// Commits the move iff `epoch` is still current. Idempotent for
  /// duplicate transfers of the same migration. Billed as an RPC from
  /// `requester`. Returns false when the epoch is stale (aborted).
  bool commit_migration(BeeId bee, HiveId to, std::uint64_t epoch,
                        HiveId requester, TimePoint now);

  /// Aborts a migration: bumps the epoch so in-flight transfers cannot
  /// commit. Fails (returns false) when the bee is no longer at `origin` —
  /// i.e. a commit won the race and the caller should treat the migration
  /// as complete instead.
  bool cancel_migration(BeeId bee, HiveId origin, HiveId requester,
                        TimePoint now);

  /// Registers one additional state transfer decided into `bee` outside a
  /// resolve. Keeps the fence accounting balanced for paths the resolve
  /// did not count.
  void add_expected_transfer(BeeId bee);

  /// Resets a bee's transfer fence (crash recovery: the adopted bee starts
  /// from replica state with fresh counters; transfers in flight to the
  /// dead hive are lost by definition).
  void reset_expected_transfers(BeeId bee);

  /// Current transfers_expected of a live bee (0 for unknown ids). Used to
  /// re-fence messages that are re-targeted at a merge successor.
  std::uint64_t expected_transfers(BeeId bee) const;

  /// Current hive of a live bee, following forwarding for dead ones.
  /// Returns nullopt for unknown ids.
  std::optional<HiveId> hive_of(BeeId bee) const;

  /// Follows the forwarding chain to the live successor of `bee`.
  BeeId live_successor(BeeId bee) const;

  const BeeRecord* find(BeeId bee) const;
  std::vector<BeeRecord> live_bees() const;
  std::size_t live_bee_count() const;
  std::size_t cells_on_hive(HiveId hive) const;

  // -- Sharding introspection ----------------------------------------------

  std::size_t shard_count() const { return shards_.size(); }
  /// Shard owning one cell's table entry. Whole-dict cells hash to the
  /// dictionary's canonical shard (the one that also holds global owners).
  std::uint32_t shard_of_cell(AppId app, const CellKey& cell) const;
  RegistryShardStats shard_stats(std::size_t shard) const;

  // -- Fault injection (lossy RPC channel) ---------------------------------

  /// Installed by the cluster runtime: decides whether one RPC attempt
  /// from `requester` is lost on the wire (driven by its FaultPlan and
  /// seeded RNG). Null = RPCs never fail.
  using RpcFaultHook = std::function<bool(HiveId requester)>;
  void set_rpc_fault_hook(RpcFaultHook hook);

  /// One client RPC attempt: returns true (and bills the wasted request
  /// bytes) when the fault hook declares it lost. Local calls from the
  /// registry hive never fail. Clients call this before each real RPC.
  bool rpc_attempt_lost(HiveId requester, std::size_t request_bytes,
                        TimePoint now);

  // -- Client-cache plumbing ----------------------------------------------

  class Client;
  void attach_client(Client* client);

  HiveId registry_hive() const { return registry_hive_; }

  // Approximate wire costs of registry traffic (bytes).
  static constexpr std::size_t kRpcRequestBase = 24;
  static constexpr std::size_t kRpcResponseBytes = 32;
  static constexpr std::size_t kInvalidationBytes = 24;

 private:
  struct AppTables {
    std::unordered_map<CellKey, BeeId, CellKeyHash> owner;
    // dict name -> bee owning (dict, "*"), if any (canonical shard only).
    std::unordered_map<std::string, BeeId> global_owner;
    // dict name -> bees owning at least one cell of the dict in this shard.
    std::unordered_map<std::string, std::unordered_set<BeeId>> dict_bees;
  };

  /// One independent partition of the lock service. Records homed here
  /// never move to another shard, so a (bee -> shard) lookup needs no
  /// revalidation after its lock is dropped.
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<AppId, AppTables> apps;
    std::unordered_map<BeeId, BeeRecord> bees;  ///< records homed here
    // Which client hives have each homed bee cached (invalidation fan-out).
    std::unordered_map<BeeId, std::unordered_set<HiveId>> cachers;
    // Contention stats (atomics: read lock-free by shard_stats()).
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> lock_waits{0};
    std::atomic<std::uint64_t> lock_wait_ns{0};
    std::atomic<std::uint64_t> invalidations{0};
    std::atomic<std::uint64_t> resolves{0};
  };

  /// RAII multi-shard lock: acquires every shard in `mask` in ascending
  /// index order (the global lock order that makes expand-and-retry safe).
  class MaskGuard {
   public:
    MaskGuard(const RegistryService& svc, std::uint64_t mask);
    ~MaskGuard();
    MaskGuard(const MaskGuard&) = delete;
    MaskGuard& operator=(const MaskGuard&) = delete;

   private:
    const RegistryService& svc_;
    std::uint64_t mask_;
  };

  static constexpr std::uint64_t bit(std::uint32_t shard) {
    return std::uint64_t{1} << shard;
  }
  std::uint64_t all_mask() const {
    return shards_.size() >= 64 ? ~std::uint64_t{0}
                                : (std::uint64_t{1} << shards_.size()) - 1;
  }

  std::uint32_t dict_shard(AppId app, const std::string& dict) const;
  std::size_t filter_slot(AppId app, const std::string& dict) const;
  /// Shards an operation on `cells` must lock before discovery: each key
  /// cell's shard, the dictionary's canonical shard when a whole-dict
  /// owner may exist (dict_filter_), and every shard for whole-dict
  /// requests (absorption scans all partitions).
  std::uint64_t request_mask(AppId app, const CellSet& cells) const;
  /// Just the dict_filter_-dependent bits of request_mask: the only bits
  /// that can appear between the pre-lock mask computation and the
  /// post-lock re-check (key→shard bits are pure hashes and never move).
  std::uint64_t filter_mask(AppId app, const CellSet& cells) const;

  void lock_shard(std::uint32_t shard) const;
  /// Home shard of `bee` (kAllShards when unknown). Lock-free w.r.t. the
  /// shard mutexes; the stripe mutex guards only one map lookup.
  std::uint32_t home_of(BeeId bee) const;

  /// Live record of `id` (following forwarding), visible only through
  /// shards locked in `mask`. When the walk needs a shard outside the
  /// mask, returns nullptr and ORs that shard into *miss_mask so the
  /// caller can expand and retry.
  BeeRecord* find_live_in_mask(BeeId id, std::uint64_t mask,
                               std::uint64_t* miss_mask,
                               std::uint32_t* shard_out = nullptr);

  BeeId allocate_bee_id(HiveId hive);
  void assign_cells_locked(AppId app, BeeRecord& bee, const CellSet& cells);
  void bill_rpc(HiveId requester, std::size_t request_bytes, TimePoint now);
  /// `home` must be the (locked) shard `rec` is homed in.
  void invalidate_cachers_locked(Shard& home, const BeeRecord& rec,
                                 TimePoint now);
  /// Record lookup + callback under the bee's home shard lock; returns
  /// false for unknown ids. The workhorse of all single-bee operations.
  bool with_bee(BeeId bee, const std::function<void(Shard&, BeeRecord&)>& fn);
  bool with_bee(BeeId bee,
                const std::function<void(const Shard&, const BeeRecord&)>& fn)
      const;

  std::size_t n_hives_;
  ChannelMeter* meter_;
  HiveId registry_hive_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // bee -> home shard. Striped: tiny critical sections, never held while
  // taking a shard mutex (home assignments are immutable once written).
  static constexpr std::size_t kHomeStripes = 16;
  struct HomeStripe {
    mutable std::mutex mutex;
    std::unordered_map<BeeId, std::uint32_t> home;
  };
  mutable std::array<HomeStripe, kHomeStripes> home_;

  /// Lock-free "might dict D have a whole-dict owner?" filter (counting,
  /// never decremented). Slot 0 proves no owner exists, so single-key
  /// resolves skip the canonical dict shard; false positives only cost an
  /// extra shard lock. Incremented BEFORE the owning insert commits is not
  /// needed: assign happens under the canonical shard's lock and readers
  /// re-check the filter after locking (see resolve_or_create).
  std::array<std::atomic<std::uint32_t>, 512> dict_filter_{};

  /// Per-hive bee-id counters (lock-free allocation).
  std::unique_ptr<std::atomic<std::uint32_t>[]> bee_counters_;

  mutable std::mutex misc_mutex_;  ///< hooks, clients
  PlacementHook placement_hook_;
  /// Lets the resolve hot path skip the misc_mutex_ hook copy entirely
  /// when no hook was ever installed (the overwhelmingly common case).
  std::atomic<bool> has_placement_hook_{false};
  RpcFaultHook rpc_fault_hook_;
  std::vector<Client*> clients_;
};

/// Per-hive front end with a Chubby-style cache. Lookups served from the
/// cache cost nothing on the control channel; misses RPC to the master. A
/// cached entry has no expiry: it is served until the master's
/// invalidation (a merge or migration of its bee) removes it.
///
/// Under a lossy channel (RegistryService::set_rpc_fault_hook) every miss
/// RPC is retried up to kMaxRpcAttempts times; when a whole round is lost
/// the client fails the lookup (resolve outcomes report bee == kNoBee,
/// hive_of returns nullopt) and backs off exponentially — further misses
/// fail fast, without billing the channel, until the backoff expires.
class RegistryService::Client {
 public:
  Client(RegistryService& service, HiveId self);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// RPC attempts per lookup before giving up (the last chance included).
  static constexpr int kMaxRpcAttempts = 4;
  static constexpr Duration kBackoffInitial = 2 * kMillisecond;
  static constexpr Duration kBackoffMax = 256 * kMillisecond;

  ResolveOutcome resolve_or_create(AppId app, const CellSet& cells,
                                   bool pinned, TimePoint now);

  /// Cached bee location; falls back to the master on a miss.
  std::optional<HiveId> hive_of(BeeId bee, TimePoint now);

  /// Called by the service when ownership of `bee` changes: drops the
  /// bee's cached location.
  void invalidate(BeeId bee);

  HiveId self() const { return self_; }

  std::uint64_t cache_hits() const { return hits_; }
  std::uint64_t cache_misses() const { return misses_; }
  /// Lost attempts that were retried.
  std::uint64_t rpc_retries() const { return rpc_retries_; }
  /// Lookups that failed outright (all attempts lost, or fast-failed
  /// inside a backoff window).
  std::uint64_t rpc_failures() const { return rpc_failures_; }

 private:
  friend class RegistryService;

  /// Runs the retry loop for one lookup of `request_bytes` on the wire.
  /// Returns false when the lookup must fail (exhausted or backing off).
  bool rpc_admitted(std::size_t request_bytes, TimePoint now);

  struct CellCacheKey {
    AppId app;
    CellKey cell;
    bool operator==(const CellCacheKey&) const = default;
  };
  struct CellCacheKeyHash {
    std::size_t operator()(const CellCacheKey& k) const {
      std::size_t h = CellKeyHash{}(k.cell);
      hash_combine(h, k.app);
      return h;
    }
  };

  /// Cache lookup; client mutex held.
  std::optional<ResolveOutcome> try_cache_locked(AppId app,
                                                 const CellSet& cells);

  RegistryService& service_;
  HiveId self_;
  std::mutex mutex_;
  std::unordered_map<CellCacheKey, BeeId, CellCacheKeyHash> cell_to_bee_;
  std::unordered_map<BeeId, HiveId> bee_hive_;
  // Last transfers_expected the master reported per bee. Served on cache
  // hits: a hit must carry the fence of the decision that created the
  // entry, or messages could slip past in-flight merge transfers.
  std::unordered_map<BeeId, std::uint64_t> bee_expected_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t rpc_retries_ = 0;
  std::uint64_t rpc_failures_ = 0;
  TimePoint backoff_until_ = 0;
  Duration backoff_ = kBackoffInitial;
};

}  // namespace beehive
