#include "cluster/registry.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "util/logging.h"

namespace beehive {

namespace {
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

RegistryService::RegistryService(std::size_t n_hives, ChannelMeter* meter)
    : n_hives_(n_hives),
      meter_(meter),
      bee_counters_(std::max<std::size_t>(n_hives, 1), 0) {}

std::unique_lock<std::mutex> RegistryService::lock() const {
  std::unique_lock held(mutex_, std::try_to_lock);
  if (!held.owns_lock()) {
    const auto t0 = std::chrono::steady_clock::now();
    held.lock();
    const auto waited = std::chrono::steady_clock::now() - t0;
    ++stats_.lock_waits;
    stats_.lock_wait_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(waited).count());
  }
  ++stats_.ops;
  return held;
}

void RegistryService::set_placement_hook(PlacementHook hook) {
  auto held = lock();
  placement_hook_ = std::move(hook);
}

void RegistryService::set_rpc_fault_hook(RpcFaultHook hook) {
  auto held = lock();
  rpc_fault_hook_ = std::move(hook);
}

bool RegistryService::rpc_attempt_lost(HiveId requester,
                                       std::size_t request_bytes,
                                       TimePoint now) {
  if (requester == kRegistryHive) return false;
  auto held = lock();
  if (!rpc_fault_hook_ || !rpc_fault_hook_(requester)) return false;
  // The request left the requester's NIC before it was lost: the channel
  // still carried (and bills) those bytes. No response comes back.
  if (meter_ != nullptr) meter_->record(requester, kRegistryHive,
                                        request_bytes, now);
  return true;
}

void RegistryService::attach_client(Client* client) {
  auto held = lock();
  clients_.push_back(client);
}

RegistryStats RegistryService::stats() const {
  std::lock_guard held(mutex_);
  return stats_;
}

// -- Locked helpers ----------------------------------------------------------

BeeRecord* RegistryService::record_locked(BeeId bee) {
  return const_cast<BeeRecord*>(std::as_const(*this).record_locked(bee));
}

const BeeRecord* RegistryService::record_locked(BeeId bee) const {
  auto it = bees_.find(bee);
  return it == bees_.end() ? nullptr : &it->second;
}

BeeRecord* RegistryService::live_record_locked(BeeId bee) {
  return const_cast<BeeRecord*>(
      std::as_const(*this).live_record_locked(bee));
}

const BeeRecord* RegistryService::live_record_locked(BeeId bee) const {
  const BeeRecord* rec = record_locked(bee);
  while (rec != nullptr && rec->dead) {
    rec = rec->forwarded_to == kNoBee ? nullptr
                                      : record_locked(rec->forwarded_to);
  }
  return rec;
}

BeeId RegistryService::allocate_bee_id(HiveId hive) {
  // Counter starts at 1: counter 0 on hive 0 would collide with kNoBee.
  return make_bee_id(hive, ++bee_counters_[hive]);
}

void RegistryService::assign_cells_locked(AppTables& tables, BeeRecord& bee,
                                          const CellSet& cells) {
  for (const CellKey& cell : cells) {
    if (cell.is_whole_dict()) {
      tables.global_owner[cell.dict] = bee.id;
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

void RegistryService::invalidate_cachers_locked(const BeeRecord& rec,
                                                TimePoint now) {
  auto it = cachers_.find(rec.id);
  if (it == cachers_.end()) return;
  ++stats_.invalidations;
  for (HiveId hive : it->second) {
    if (meter_ != nullptr && hive != kRegistryHive) {
      meter_->record(kRegistryHive, hive, kInvalidationBytes, now);
    }
    for (Client* client : clients_) {
      if (client->self() == hive) client->invalidate(rec.id);
    }
  }
  cachers_.erase(it);
}

// -- Core operations ---------------------------------------------------------

ResolveOutcome RegistryService::resolve_or_create(AppId app,
                                                  const CellSet& cells,
                                                  HiveId requester, bool pinned,
                                                  TimePoint now) {
  auto held = lock();
  return resolve_locked(app, cells, requester, pinned, now);
}

ResolveOutcome RegistryService::resolve_locked(AppId app, const CellSet& cells,
                                               HiveId requester, bool pinned,
                                               TimePoint now) {
  AppTables& tables = apps_[app];

  // 1. Collect the live bees currently owning any requested cell. A
  //    whole-dict request touches every bee of that dictionary; a key
  //    request also matches the dictionary's global ("*") owner.
  std::vector<BeeRecord*> owners;
  auto add_owner = [&](BeeId id) {
    BeeRecord* rec = live_record_locked(id);
    if (rec == nullptr) return;
    for (const BeeRecord* seen : owners) {
      if (seen->id == rec->id) return;
    }
    owners.push_back(rec);
  };
  for (const CellKey& cell : cells) {
    if (auto git = tables.global_owner.find(cell.dict);
        git != tables.global_owner.end()) {
      add_owner(git->second);
    }
    if (cell.is_whole_dict()) {
      if (auto dit = tables.dict_bees.find(cell.dict);
          dit != tables.dict_bees.end()) {
        for (BeeId id : dit->second) add_owner(id);
      }
    } else if (auto oit = tables.owner.find(cell); oit != tables.owner.end()) {
      add_owner(oit->second);
    }
  }

  ResolveOutcome out;
  if (owners.empty()) {
    // 2a. Fresh cells: create a bee, by default on the requesting hive
    //     ("the local hive creates a new bee", paper §3).
    HiveId place = requester;
    if (placement_hook_) place = placement_hook_(app, cells, requester);
    assert(place < n_hives_);
    BeeId id = allocate_bee_id(place);
    BeeRecord rec;
    rec.id = id;
    rec.app = app;
    rec.hive = place;
    rec.pinned = pinned;
    auto [it, inserted] = bees_.emplace(id, std::move(rec));
    assert(inserted);
    assign_cells_locked(tables, it->second, cells);
    out.bee = id;
    out.hive = place;
    out.created = true;
  } else {
    // 2b. Pick the winner among existing owners: pinned bees always win
    //     (drivers are anchored to their IO channel), then the bee with
    //     the most cells (cheapest merge), then the lowest id (stable, and
    //     independent of discovery order).
    std::sort(owners.begin(), owners.end(),
              [](const BeeRecord* a, const BeeRecord* b) {
                if (a->pinned != b->pinned) return a->pinned;
                if (a->cells.size() != b->cells.size()) {
                  return a->cells.size() > b->cells.size();
                }
                return a->id < b->id;
              });
    BeeRecord& wrec = *owners.front();
    for (std::size_t i = 1; i < owners.size(); ++i) {
      BeeRecord& loser = *owners[i];
      assert(!loser.pinned && "two pinned bees share cells: design error");
      // Atomically re-point every cell of the loser at the winner.
      for (const CellKey& cell : loser.cells) {
        tables.dict_bees[cell.dict].erase(loser.id);
      }
      assign_cells_locked(tables, wrec, loser.cells);
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
      invalidate_cachers_locked(loser, now);
    }
    assign_cells_locked(tables, wrec, cells);
    out.bee = wrec.id;
    out.hive = wrec.hive;
    out.transfers_expected = wrec.transfers_expected;
  }
  ++stats_.resolves;
  cachers_[out.bee].insert(requester);
  bill_rpc(requester, kRpcRequestBase + encoded_cells_size(cells), now);
  return out;
}

ResolveOutcome RegistryService::resolve_for(Client& client, AppId app,
                                            const CellSet& cells, bool pinned,
                                            TimePoint now) {
  auto held = lock();
  ResolveOutcome out = resolve_locked(app, cells, client.self(), pinned, now);
  client.fill(app, cells, out);
  return out;
}

std::optional<HiveId> RegistryService::locate_for(Client& client, BeeId bee,
                                                  TimePoint now) {
  auto held = lock();
  bill_rpc(client.self(), kRpcRequestBase, now);
  const BeeRecord* rec = live_record_locked(bee);
  if (rec == nullptr) return std::nullopt;
  cachers_[rec->id].insert(client.self());
  client.fill_hive(rec->id, rec->hive);
  return rec->hive;
}

void RegistryService::reset_expected_transfers(BeeId bee) {
  auto held = lock();
  if (BeeRecord* rec = record_locked(bee)) rec->transfers_expected = 0;
}

std::uint64_t RegistryService::expected_transfers(BeeId bee) const {
  auto held = lock();
  const BeeRecord* rec = record_locked(bee);
  return rec == nullptr ? 0 : rec->transfers_expected;
}

std::uint64_t RegistryService::begin_migration(BeeId bee, HiveId requester,
                                               TimePoint now) {
  auto held = lock();
  BeeRecord* rec = record_locked(bee);
  if (rec == nullptr || rec->dead) return 0;
  bill_rpc(requester, kRpcRequestBase, now);
  return ++rec->mig_epoch;
}

bool RegistryService::commit_migration(BeeId bee, HiveId to,
                                       std::uint64_t epoch, HiveId requester,
                                       TimePoint now) {
  auto held = lock();
  bill_rpc(requester, kRpcRequestBase, now);
  BeeRecord* rec = record_locked(bee);
  if (rec == nullptr || rec->dead) return false;
  if (rec->mig_epoch != epoch) return false;  // aborted meanwhile
  assert(to < n_hives_);
  // Idempotent for duplicate transfers of the same (live) migration: the
  // epoch stays current so a retransmitted payload re-commits harmlessly.
  rec->hive = to;
  invalidate_cachers_locked(*rec, now);
  return true;
}

bool RegistryService::cancel_migration(BeeId bee, HiveId origin,
                                       HiveId requester, TimePoint now) {
  auto held = lock();
  bill_rpc(requester, kRpcRequestBase, now);
  BeeRecord* rec = record_locked(bee);
  if (rec == nullptr || rec->dead) return false;
  if (rec->hive != origin) return false;  // a commit won the race
  ++rec->mig_epoch;
  return true;
}

void RegistryService::move_bee(BeeId bee, HiveId to, TimePoint now) {
  auto held = lock();
  BeeRecord* rec = record_locked(bee);
  assert(rec != nullptr && !rec->dead);
  assert(to < n_hives_);
  if (rec == nullptr) return;
  rec->hive = to;
  invalidate_cachers_locked(*rec, now);
}

std::optional<HiveId> RegistryService::hive_of(BeeId bee) const {
  auto held = lock();
  const BeeRecord* rec = live_record_locked(bee);
  if (rec == nullptr) return std::nullopt;
  return rec->hive;
}

BeeId RegistryService::live_successor(BeeId bee) const {
  auto held = lock();
  const BeeRecord* rec = live_record_locked(bee);
  return rec == nullptr ? kNoBee : rec->id;
}

std::optional<BeeRecord> RegistryService::find(BeeId bee) const {
  auto held = lock();
  const BeeRecord* rec = record_locked(bee);
  if (rec == nullptr) return std::nullopt;
  return *rec;
}

std::vector<BeeRecord> RegistryService::live_bees() const {
  std::vector<BeeRecord> out;
  {
    auto held = lock();
    for (const auto& [_, rec] : bees_) {
      if (!rec.dead) out.push_back(rec);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const BeeRecord& a, const BeeRecord& b) { return a.id < b.id; });
  return out;
}

std::size_t RegistryService::live_bee_count() const {
  auto held = lock();
  std::size_t n = 0;
  for (const auto& [_, rec] : bees_) n += rec.dead ? 0 : 1;
  return n;
}

std::size_t RegistryService::cells_on_hive(HiveId hive) const {
  auto held = lock();
  std::size_t n = 0;
  for (const auto& [_, rec] : bees_) {
    if (!rec.dead && rec.hive == hive) n += rec.cells.size();
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
  return service_.resolve_for(*this, app, cells, pinned, now);
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
  return service_.locate_for(*this, bee, now);
}

void RegistryService::Client::fill(AppId app, const CellSet& cells,
                                   const ResolveOutcome& out) {
  std::lock_guard lock(mutex_);
  for (const CellKey& cell : cells) cell_to_bee_[{app, cell}] = out.bee;
  bee_hive_[out.bee] = out.hive;
  std::uint64_t& expected = bee_expected_[out.bee];
  if (out.transfers_expected > expected) expected = out.transfers_expected;
}

void RegistryService::Client::fill_hive(BeeId bee, HiveId hive) {
  std::lock_guard lock(mutex_);
  bee_hive_[bee] = hive;
}

}  // namespace beehive
