#include "cluster/registry.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>

#include "util/logging.h"

namespace beehive {

namespace {
/// Calls fn(shard_index) for every set bit of mask, ascending.
template <typename Fn>
void for_each_shard(std::uint64_t mask, Fn&& fn) {
  while (mask != 0) {
    const std::uint32_t s = static_cast<std::uint32_t>(std::countr_zero(mask));
    mask &= mask - 1;
    fn(s);
  }
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Exact wire size of CellSet::encode (varint count, then per cell two
/// length-prefixed strings) without allocating a ByteWriter — resolves
/// bill this on every RPC and must match the encoder byte for byte.
std::size_t encoded_cells_size(const CellSet& cells) {
  std::size_t n = varint_size(cells.size());
  for (const CellKey& c : cells) {
    n += varint_size(c.dict.size()) + c.dict.size() +
         varint_size(c.key.size()) + c.key.size();
  }
  return n;
}
}  // namespace

RegistryService::RegistryService(std::size_t n_hives, ChannelMeter* meter,
                                 std::size_t n_shards)
    : n_hives_(n_hives), meter_(meter) {
  n_shards = std::clamp<std::size_t>(n_shards, 1, kMaxShards);
  shards_.reserve(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  bee_counters_ = std::make_unique<std::atomic<std::uint32_t>[]>(
      std::max<std::size_t>(n_hives, 1));
}

void RegistryService::set_placement_hook(PlacementHook hook) {
  std::lock_guard lock(misc_mutex_);
  placement_hook_ = std::move(hook);
  has_placement_hook_.store(static_cast<bool>(placement_hook_),
                            std::memory_order_release);
}

void RegistryService::set_rpc_fault_hook(RpcFaultHook hook) {
  std::lock_guard lock(misc_mutex_);
  rpc_fault_hook_ = std::move(hook);
}

bool RegistryService::rpc_attempt_lost(HiveId requester,
                                       std::size_t request_bytes,
                                       TimePoint now) {
  // Serialized: fault hooks drive a shared seeded RNG and rely on the
  // registry to order their draws (deterministic replay).
  std::lock_guard lock(misc_mutex_);
  if (requester == kRegistryHive || !rpc_fault_hook_) return false;
  if (!rpc_fault_hook_(requester)) return false;
  // The request left the requester's NIC before it was lost: the channel
  // still carried (and bills) those bytes. No response comes back.
  if (meter_ != nullptr) meter_->record(requester, kRegistryHive,
                                        request_bytes, now);
  return true;
}

void RegistryService::attach_client(Client* client) {
  std::lock_guard lock(misc_mutex_);
  clients_.push_back(client);
}

// -- Shard routing -----------------------------------------------------------

std::uint32_t RegistryService::shard_of_cell(AppId app,
                                             const CellKey& cell) const {
  // Whole-dict cells deliberately omit the key part: (D, "*") lands on the
  // same shard as dict_shard(D), the dictionary's canonical shard.
  std::size_t h = fnv1a64(cell.dict);
  hash_combine(h, app);
  if (!cell.is_whole_dict()) hash_combine(h, fnv1a64(cell.key));
  return static_cast<std::uint32_t>(h % shards_.size());
}

std::uint32_t RegistryService::dict_shard(AppId app,
                                          const std::string& dict) const {
  std::size_t h = fnv1a64(dict);
  hash_combine(h, app);
  return static_cast<std::uint32_t>(h % shards_.size());
}

std::size_t RegistryService::filter_slot(AppId app,
                                         const std::string& dict) const {
  std::size_t h = fnv1a64(dict);
  hash_combine(h, app);
  return h % dict_filter_.size();
}

std::uint64_t RegistryService::request_mask(AppId app,
                                            const CellSet& cells) const {
  // Hashes each cell's dict once: the key-shard, the filter slot, and the
  // canonical dict shard all derive from the same (dict, app) prefix hash
  // (must stay bit-identical to shard_of_cell / dict_shard / filter_slot).
  std::uint64_t mask = 0;
  for (const CellKey& cell : cells) {
    if (cell.is_whole_dict()) {
      // Absorption: a whole-dict owner must collect the dictionary's bees
      // from every partition, so the request serializes cluster-wide.
      return all_mask();
    }
    std::size_t hd = fnv1a64(cell.dict);
    hash_combine(hd, app);
    std::size_t hk = hd;
    hash_combine(hk, fnv1a64(cell.key));
    mask |= bit(static_cast<std::uint32_t>(hk % shards_.size()));
    // A key resolve must also see the dictionary's global ("*") owner if
    // one exists; the lock-free filter proves absence so the common case
    // (no whole-dict owner anywhere) stays single-shard. Relaxed is
    // enough: publication happens under the canonical shard's mutex and
    // readers re-check after locking (resolve_or_create), so the mutex
    // provides the happens-before edge — this load is only a hint.
    if (dict_filter_[hd % dict_filter_.size()].load(
            std::memory_order_relaxed) > 0) {
      mask |= bit(static_cast<std::uint32_t>(hd % shards_.size()));
    }
  }
  return mask == 0 ? bit(0) : mask;
}

std::uint64_t RegistryService::filter_mask(AppId app,
                                           const CellSet& cells) const {
  std::uint64_t mask = 0;
  for (const CellKey& cell : cells) {
    if (cell.is_whole_dict()) continue;  // already widened to all_mask()
    std::size_t hd = fnv1a64(cell.dict);
    hash_combine(hd, app);
    if (dict_filter_[hd % dict_filter_.size()].load(
            std::memory_order_relaxed) > 0) {
      mask |= bit(static_cast<std::uint32_t>(hd % shards_.size()));
    }
  }
  return mask;
}

void RegistryService::lock_shard(std::uint32_t shard) const {
  Shard& sh = *shards_[shard];
  sh.ops.fetch_add(1, std::memory_order_relaxed);
  if (sh.mutex.try_lock()) return;
  const auto t0 = std::chrono::steady_clock::now();
  sh.mutex.lock();
  const auto waited = std::chrono::steady_clock::now() - t0;
  sh.lock_waits.fetch_add(1, std::memory_order_relaxed);
  sh.lock_wait_ns.fetch_add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(waited).count(),
      std::memory_order_relaxed);
}

RegistryService::MaskGuard::MaskGuard(const RegistryService& svc,
                                      std::uint64_t mask)
    : svc_(svc), mask_(mask) {
  // Ascending index order is the global lock order; see resolve_or_create.
  for_each_shard(mask_, [&](std::uint32_t s) { svc_.lock_shard(s); });
}

RegistryService::MaskGuard::~MaskGuard() {
  for_each_shard(mask_,
                 [&](std::uint32_t s) { svc_.shards_[s]->mutex.unlock(); });
}

std::uint32_t RegistryService::home_of(BeeId bee) const {
  const HomeStripe& stripe = home_[bee % kHomeStripes];
  std::lock_guard lock(stripe.mutex);
  auto it = stripe.home.find(bee);
  return it == stripe.home.end() ? kAllShards : it->second;
}

BeeRecord* RegistryService::find_live_in_mask(BeeId id, std::uint64_t mask,
                                              std::uint64_t* miss_mask,
                                              std::uint32_t* shard_out) {
  for (;;) {
    const std::uint32_t home = home_of(id);
    if (home == kAllShards) return nullptr;  // unknown id
    if ((mask & bit(home)) == 0) {
      // The walk left the locked set: tell the caller which shard to add.
      // Home assignments are immutable, so the expanded retry will find
      // the record exactly there.
      *miss_mask |= bit(home);
      return nullptr;
    }
    Shard& sh = *shards_[home];
    auto it = sh.bees.find(id);
    if (it == sh.bees.end()) return nullptr;
    BeeRecord& rec = it->second;
    if (!rec.dead) {
      if (shard_out != nullptr) *shard_out = home;
      return &rec;
    }
    if (rec.forwarded_to == kNoBee) return nullptr;
    id = rec.forwarded_to;  // dead records never change: chain is stable
  }
}

bool RegistryService::with_bee(
    BeeId bee, const std::function<void(Shard&, BeeRecord&)>& fn) {
  const std::uint32_t home = home_of(bee);
  if (home == kAllShards) return false;
  lock_shard(home);
  std::lock_guard lock(shards_[home]->mutex, std::adopt_lock);
  auto it = shards_[home]->bees.find(bee);
  if (it == shards_[home]->bees.end()) return false;
  fn(*shards_[home], it->second);
  return true;
}

bool RegistryService::with_bee(
    BeeId bee,
    const std::function<void(const Shard&, const BeeRecord&)>& fn) const {
  const std::uint32_t home = home_of(bee);
  if (home == kAllShards) return false;
  const Shard& sh = *shards_[home];
  std::lock_guard lock(sh.mutex);
  auto it = sh.bees.find(bee);
  if (it == sh.bees.end()) return false;
  fn(sh, it->second);
  return true;
}

// -- Core operations ---------------------------------------------------------

BeeId RegistryService::allocate_bee_id(HiveId hive) {
  // Counter starts at 1: counter 0 on hive 0 would collide with kNoBee.
  std::uint32_t counter =
      bee_counters_[hive].fetch_add(1, std::memory_order_relaxed) + 1;
  return make_bee_id(hive, counter);
}

void RegistryService::assign_cells_locked(AppId app, BeeRecord& bee,
                                          const CellSet& cells) {
  for (const CellKey& cell : cells) {
    AppTables& tables = shards_[shard_of_cell(app, cell)]->apps[app];
    if (cell.is_whole_dict()) {
      auto [it, inserted] = tables.global_owner.emplace(cell.dict, bee.id);
      if (inserted) {
        // First whole-dict owner of this (app, dict): publish it in the
        // lock-free filter so key resolves start including the canonical
        // shard. Monotone (never decremented): a stale positive only
        // costs an extra shard in the mask.
        // Relaxed: the increment is published by the canonical shard's
        // mutex release; pre-lock readers treat the filter as a hint and
        // re-check under the lock (see request_mask / resolve_or_create).
        dict_filter_[filter_slot(app, cell.dict)].fetch_add(
            1, std::memory_order_relaxed);
      } else {
        it->second = bee.id;
      }
    } else {
      tables.owner[cell] = bee.id;
    }
    tables.dict_bees[cell.dict].insert(bee.id);
    bee.cells.insert(cell);
  }
}

void RegistryService::bill_rpc(HiveId requester, std::size_t request_bytes,
                               TimePoint now) {
  if (meter_ == nullptr || requester == kRegistryHive) return;
  meter_->record(requester, kRegistryHive, request_bytes, now);
  meter_->record(kRegistryHive, requester, kRpcResponseBytes, now);
}

void RegistryService::invalidate_cachers_locked(Shard& home,
                                                const BeeRecord& rec,
                                                TimePoint now) {
  auto it = home.cachers.find(rec.id);
  if (it == home.cachers.end()) return;
  home.invalidations.fetch_add(1, std::memory_order_relaxed);
  std::vector<Client*> clients;
  {
    std::lock_guard lock(misc_mutex_);
    clients = clients_;
  }
  for (HiveId hive : it->second) {
    if (meter_ != nullptr && hive != kRegistryHive) {
      meter_->record(kRegistryHive, hive, kInvalidationBytes, now);
    }
    for (Client* client : clients) {
      if (client->self() == hive) client->invalidate(rec.id);
    }
  }
  home.cachers.erase(it);
}

RegistryShardStats RegistryService::shard_stats(std::size_t shard) const {
  RegistryShardStats st;
  if (shard >= shards_.size()) return st;
  const Shard& sh = *shards_[shard];
  st.ops = sh.ops.load(std::memory_order_relaxed);
  st.lock_waits = sh.lock_waits.load(std::memory_order_relaxed);
  st.lock_wait_ns = sh.lock_wait_ns.load(std::memory_order_relaxed);
  st.invalidations = sh.invalidations.load(std::memory_order_relaxed);
  st.resolves = sh.resolves.load(std::memory_order_relaxed);
  return st;
}

BeeId RegistryService::live_successor(BeeId bee) const {
  BeeId id = bee;
  for (;;) {
    const std::uint32_t home = home_of(id);
    if (home == kAllShards) return kNoBee;
    const Shard& sh = *shards_[home];
    std::lock_guard lock(sh.mutex);
    auto it = sh.bees.find(id);
    if (it == sh.bees.end()) return kNoBee;
    if (!it->second.dead) return it->second.id;
    if (it->second.forwarded_to == kNoBee) return kNoBee;
    // Dead records are immutable, so the chain can be walked one locked
    // step at a time — no global lock needed.
    id = it->second.forwarded_to;
  }
}

ResolveOutcome RegistryService::resolve_or_create(AppId app,
                                                  const CellSet& cells,
                                                  HiveId requester, bool pinned,
                                                  TimePoint now) {
  std::uint64_t need = request_mask(app, cells);
  // Expand-and-retry: lock the shards the request appears to touch; if
  // discovery (forwarding chains, merge losers, a freshly published
  // whole-dict owner) reveals shards outside the set, drop every lock and
  // retry with the union. The mask grows monotonically, so this
  // terminates in ≤ shard_count() rounds; steady-state single-shard
  // traffic never retries.
  for (;;) {
    MaskGuard guard(*this, need);
    // Post-lock re-check: only the dict_filter_ bits can differ from the
    // pre-lock mask (a whole-dict owner published while we were locking);
    // the key→shard bits are pure hashes and already in `need`.
    std::uint64_t miss = filter_mask(app, cells) & ~need;

    // 1. Collect the live bees currently owning any requested cell. A
    //    whole-dict request touches every bee of that dictionary; a key
    //    request also matches the dictionary's global ("*") owner.
    std::vector<std::pair<BeeRecord*, std::uint32_t>> owners;
    auto add_owner = [&](BeeId id) {
      std::uint32_t shard = 0;
      BeeRecord* rec = find_live_in_mask(id, need, &miss, &shard);
      if (rec == nullptr) return;
      for (const auto& [seen, _] : owners) {
        if (seen->id == rec->id) return;
      }
      owners.emplace_back(rec, shard);
    };
    for (const CellKey& cell : cells) {
      const std::uint32_t ds = dict_shard(app, cell.dict);
      if ((need & bit(ds)) != 0) {
        // When ds is NOT in the mask, the filter proved (post-lock) that
        // no whole-dict owner exists, so skipping it is safe.
        auto& shard_apps = shards_[ds]->apps;
        auto ait = shard_apps.find(app);
        if (ait != shard_apps.end()) {
          auto git = ait->second.global_owner.find(cell.dict);
          if (git != ait->second.global_owner.end()) add_owner(git->second);
        }
      }
      if (cell.is_whole_dict()) {
        // need == all_mask() here: scan every partition's bees of the dict.
        for (std::uint32_t s = 0; s < shards_.size(); ++s) {
          auto ait = shards_[s]->apps.find(app);
          if (ait == shards_[s]->apps.end()) continue;
          auto dit = ait->second.dict_bees.find(cell.dict);
          if (dit == ait->second.dict_bees.end()) continue;
          for (BeeId id : dit->second) add_owner(id);
        }
      } else {
        auto& shard_apps = shards_[shard_of_cell(app, cell)]->apps;
        auto ait = shard_apps.find(app);
        if (ait != shard_apps.end()) {
          auto oit = ait->second.owner.find(cell);
          if (oit != ait->second.owner.end()) add_owner(oit->second);
        }
      }
    }
    // A merge re-points every loser cell, so all owners' cells must be in
    // the locked set before any mutation happens.
    if (owners.size() > 1) {
      for (const auto& [rec, _] : owners) {
        for (const CellKey& cell : rec->cells) {
          miss |= bit(shard_of_cell(app, cell)) & ~need;
        }
      }
    }
    if (miss != 0) {
      need |= miss;
      continue;  // guard unlocks; retry with the expanded set
    }

    ResolveOutcome out;
    if (owners.empty()) {
      // 2a. Fresh cells: create a bee, by default on the requesting hive
      //     ("the local hive creates a new bee", paper §3). The record is
      //     homed in the shard of its first cell, forever.
      HiveId place = requester;
      // Copied lazily: only creations pay the misc_mutex_ hook copy; the
      // steady-state hit path never touches a global lock. Shard→misc
      // lock order matches invalidate_cachers_locked.
      if (has_placement_hook_.load(std::memory_order_acquire)) {
        PlacementHook hook;
        {
          std::lock_guard lock(misc_mutex_);
          hook = placement_hook_;
        }
        if (hook) place = hook(app, cells, requester);
      }
      assert(place < n_hives_);
      BeeId id = allocate_bee_id(place);
      const std::uint32_t home =
          cells.empty() ? 0 : shard_of_cell(app, cells.front());
      Shard& hs = *shards_[home];
      BeeRecord rec;
      rec.id = id;
      rec.app = app;
      rec.hive = place;
      rec.pinned = pinned;
      auto [it, inserted] = hs.bees.emplace(id, std::move(rec));
      assert(inserted);
      {
        HomeStripe& stripe = home_[id % kHomeStripes];
        std::lock_guard hlock(stripe.mutex);
        stripe.home.emplace(id, home);
      }
      assign_cells_locked(app, it->second, cells);
      out.bee = id;
      out.hive = place;
      out.created = true;
      hs.resolves.fetch_add(1, std::memory_order_relaxed);
      hs.cachers[id].insert(requester);
    } else {
      // 2b. Pick the winner among existing owners: pinned bees always win
      //     (drivers are anchored to their IO channel), then the bee with
      //     the most cells (cheapest merge), then the lowest id (stable —
      //     and independent of shard count / discovery order).
      std::sort(owners.begin(), owners.end(),
                [](const auto& a, const auto& b) {
                  const BeeRecord& ra = *a.first;
                  const BeeRecord& rb = *b.first;
                  if (ra.pinned != rb.pinned) return ra.pinned;
                  if (ra.cells.size() != rb.cells.size()) {
                    return ra.cells.size() > rb.cells.size();
                  }
                  return ra.id < rb.id;
                });
      BeeRecord& wrec = *owners.front().first;
      Shard& whome = *shards_[owners.front().second];
      for (std::size_t i = 1; i < owners.size(); ++i) {
        BeeRecord& loser = *owners[i].first;
        Shard& lhome = *shards_[owners[i].second];
        assert(!loser.pinned && "two pinned bees share cells: design error");
        // Atomically re-point every cell of the loser at the winner. Every
        // involved shard is locked (merge pre-check above).
        for (const CellKey& cell : loser.cells) {
          AppTables& tables = shards_[shard_of_cell(app, cell)]->apps[app];
          if (cell.is_whole_dict()) {
            tables.global_owner[cell.dict] = wrec.id;
          } else {
            tables.owner[cell] = wrec.id;
          }
          auto dit = tables.dict_bees.find(cell.dict);
          if (dit != tables.dict_bees.end()) dit->second.erase(loser.id);
          tables.dict_bees[cell.dict].insert(wrec.id);
          wrec.cells.insert(cell);
        }
        loser.dead = true;
        loser.forwarded_to = wrec.id;
        // The winner inherits the loser's whole transfer ledger: one for
        // the loser's own snapshot plus every transfer ever decided into
        // the loser — those still in flight will chase the forwarding
        // chain and land on the winner. The loser's snapshot carries its
        // applied count so the winner's applied counter advances by the
        // part already folded into that snapshot.
        wrec.transfers_expected += 1 + loser.transfers_expected;
        out.losers.push_back({loser.id, loser.hive});
        invalidate_cachers_locked(lhome, loser, now);
      }
      assign_cells_locked(app, wrec, cells);
      out.bee = wrec.id;
      out.hive = wrec.hive;
      out.transfers_expected = wrec.transfers_expected;
      whome.resolves.fetch_add(1, std::memory_order_relaxed);
      whome.cachers[wrec.id].insert(requester);
    }

    bill_rpc(requester, kRpcRequestBase + encoded_cells_size(cells), now);
    return out;
  }
}

void RegistryService::add_expected_transfer(BeeId bee) {
  with_bee(bee,
           [](Shard&, BeeRecord& rec) { rec.transfers_expected += 1; });
}

void RegistryService::reset_expected_transfers(BeeId bee) {
  with_bee(bee, [](Shard&, BeeRecord& rec) { rec.transfers_expected = 0; });
}

std::uint64_t RegistryService::expected_transfers(BeeId bee) const {
  std::uint64_t expected = 0;
  with_bee(bee, [&](const Shard&, const BeeRecord& rec) {
    expected = rec.transfers_expected;
  });
  return expected;
}

void RegistryService::move_bee_rpc(BeeId bee, HiveId to, HiveId requester,
                                   TimePoint now) {
  bill_rpc(requester, kRpcRequestBase, now);
  move_bee(bee, to, now);
}

std::uint64_t RegistryService::begin_migration(BeeId bee, HiveId requester,
                                               TimePoint now) {
  std::uint64_t epoch = 0;
  with_bee(bee, [&](Shard&, BeeRecord& rec) {
    if (rec.dead) return;
    bill_rpc(requester, kRpcRequestBase, now);
    epoch = ++rec.mig_epoch;
  });
  return epoch;
}

bool RegistryService::commit_migration(BeeId bee, HiveId to,
                                       std::uint64_t epoch, HiveId requester,
                                       TimePoint now) {
  bill_rpc(requester, kRpcRequestBase, now);
  bool committed = false;
  with_bee(bee, [&](Shard& sh, BeeRecord& rec) {
    if (rec.dead) return;
    if (rec.mig_epoch != epoch) return;  // aborted meanwhile
    assert(to < n_hives_);
    // Idempotent for duplicate transfers of the same (live) migration: the
    // epoch stays current so a retransmitted payload re-commits harmlessly.
    rec.hive = to;
    invalidate_cachers_locked(sh, rec, now);
    committed = true;
  });
  return committed;
}

bool RegistryService::cancel_migration(BeeId bee, HiveId origin,
                                       HiveId requester, TimePoint now) {
  bill_rpc(requester, kRpcRequestBase, now);
  bool cancelled = false;
  with_bee(bee, [&](Shard&, BeeRecord& rec) {
    if (rec.dead) return;
    if (rec.hive != origin) return;  // a commit won the race
    ++rec.mig_epoch;
    cancelled = true;
  });
  return cancelled;
}

void RegistryService::move_bee(BeeId bee, HiveId to, TimePoint now) {
  bool found = with_bee(bee, [&](Shard& sh, BeeRecord& rec) {
    assert(!rec.dead);
    assert(to < n_hives_);
    rec.hive = to;
    invalidate_cachers_locked(sh, rec, now);
  });
  assert(found);
  (void)found;
}

std::optional<HiveId> RegistryService::hive_of(BeeId bee) const {
  const BeeId live = live_successor(bee);
  if (live == kNoBee) return std::nullopt;
  std::optional<HiveId> hive;
  with_bee(live, [&](const Shard&, const BeeRecord& rec) { hive = rec.hive; });
  return hive;
}

const BeeRecord* RegistryService::find(BeeId bee) const {
  const BeeRecord* found = nullptr;
  with_bee(bee,
           [&](const Shard&, const BeeRecord& rec) { found = &rec; });
  return found;
}

std::vector<BeeRecord> RegistryService::live_bees() const {
  std::vector<BeeRecord> out;
  MaskGuard guard(*this, all_mask());
  for (const auto& shard : shards_) {
    for (const auto& [_, rec] : shard->bees) {
      if (!rec.dead) out.push_back(rec);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const BeeRecord& a, const BeeRecord& b) { return a.id < b.id; });
  return out;
}

std::size_t RegistryService::live_bee_count() const {
  std::size_t n = 0;
  MaskGuard guard(*this, all_mask());
  for (const auto& shard : shards_) {
    for (const auto& [_, rec] : shard->bees) n += rec.dead ? 0 : 1;
  }
  return n;
}

std::size_t RegistryService::cells_on_hive(HiveId hive) const {
  std::size_t n = 0;
  MaskGuard guard(*this, all_mask());
  for (const auto& shard : shards_) {
    for (const auto& [_, rec] : shard->bees) {
      if (!rec.dead && rec.hive == hive) n += rec.cells.size();
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

RegistryService::Client::Client(RegistryService& service, HiveId self)
    : service_(service), self_(self) {
  service_.attach_client(this);
}

RegistryService::Client::~Client() = default;

void RegistryService::Client::invalidate(BeeId bee) {
  std::lock_guard lock(mutex_);
  bee_hive_.erase(bee);
  // Cell entries pointing at `bee` become stale but harmless: a lookup
  // only counts as a hit when the bee's location is also cached, so the
  // next resolve falls through to the master and overwrites them.
}

std::optional<ResolveOutcome> RegistryService::Client::try_cache_locked(
    AppId app, const CellSet& cells) {
  BeeId candidate = kNoBee;
  bool hit = !cells.empty();
  for (const CellKey& cell : cells) {
    auto it = cell_to_bee_.find({app, cell});
    if (it == cell_to_bee_.end()) {
      hit = false;
      break;
    }
    if (candidate == kNoBee) {
      candidate = it->second;
    } else if (candidate != it->second) {
      hit = false;  // spans two cached bees: merge decision needed.
      break;
    }
  }
  if (!hit) return std::nullopt;
  auto hive_it = bee_hive_.find(candidate);
  if (hive_it == bee_hive_.end()) return std::nullopt;
  ResolveOutcome out;
  out.bee = candidate;
  out.hive = hive_it->second;
  auto exp_it = bee_expected_.find(candidate);
  if (exp_it != bee_expected_.end()) {
    out.transfers_expected = exp_it->second;
  }
  return out;
}

bool RegistryService::Client::rpc_admitted(std::size_t request_bytes,
                                           TimePoint now) {
  if (self_ == kRegistryHive) return true;  // local, lossless
  if (now < backoff_until_) {
    // Fast-fail inside the backoff window: the master was just found
    // unreachable; don't hammer the channel with doomed requests.
    ++rpc_failures_;
    return false;
  }
  for (int attempt = 1;; ++attempt) {
    if (!service_.rpc_attempt_lost(self_, request_bytes, now)) {
      backoff_ = kBackoffInitial;
      backoff_until_ = 0;
      return true;
    }
    if (attempt >= kMaxRpcAttempts) {
      ++rpc_failures_;
      backoff_until_ = now + backoff_;
      backoff_ = std::min(backoff_ * 2, kBackoffMax);
      BH_WARN << "registry client on hive " << self_ << ": lookup failed ("
              << kMaxRpcAttempts << " attempts lost), backing off";
      return false;
    }
    ++rpc_retries_;
  }
}

ResolveOutcome RegistryService::Client::resolve_or_create(AppId app,
                                                          const CellSet& cells,
                                                          bool pinned,
                                                          TimePoint now) {
  {
    std::lock_guard lock(mutex_);
    if (std::optional<ResolveOutcome> cached = try_cache_locked(app, cells)) {
      ++hits_;
      return *cached;
    }
    ++misses_;
  }

  if (!rpc_admitted(RegistryService::kRpcRequestBase + encoded_cells_size(cells),
                    now)) {
    return ResolveOutcome{};  // bee == kNoBee signals the failure
  }

  ResolveOutcome out =
      service_.resolve_or_create(app, cells, self_, pinned, now);

  std::lock_guard lock(mutex_);
  for (const CellKey& cell : cells) cell_to_bee_[{app, cell}] = out.bee;
  bee_hive_[out.bee] = out.hive;
  std::uint64_t& expected = bee_expected_[out.bee];
  if (out.transfers_expected > expected) expected = out.transfers_expected;
  return out;
}

std::optional<HiveId> RegistryService::Client::hive_of(BeeId bee,
                                                       TimePoint now) {
  {
    std::lock_guard lock(mutex_);
    auto it = bee_hive_.find(bee);
    if (it != bee_hive_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
  }
  if (!rpc_admitted(RegistryService::kRpcRequestBase, now)) {
    return std::nullopt;
  }
  auto hive = service_.hive_of(bee);
  // Bill the lookup RPC; a real lock service would also be consulted here.
  service_.bill_rpc(self_, RegistryService::kRpcRequestBase, now);
  BeeId live = kNoBee;
  if (hive.has_value()) {
    live = service_.live_successor(bee);
    service_.with_bee(live, [&](Shard& sh, BeeRecord& rec) {
      sh.cachers[rec.id].insert(self_);
    });
  }
  if (hive.has_value() && live != kNoBee) {
    std::lock_guard lock(mutex_);
    bee_hive_[live] = *hive;
  }
  return hive;
}

}  // namespace beehive
