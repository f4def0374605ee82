// Tests for the partitioned registry (DESIGN.md §13): shard routing,
// cross-shard cache-invalidation isolation, cache validity by invalidation
// alone, determinism of the sharded path against the single-shard path
// under seeded fault injection, and full-vs-incremental placement
// equivalence.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/registry.h"
#include "placement/strategy.h"
#include "util/rng.h"

namespace beehive {
namespace {

constexpr AppId kApp = 1;

CellSet one(const std::string& key) { return CellSet::single("d", key); }

/// Finds `n` single-cell keys that all land on pairwise different shards.
std::vector<std::string> keys_on_distinct_shards(const RegistryService& reg,
                                                 std::size_t n) {
  std::vector<std::string> keys;
  std::vector<std::uint32_t> shards;
  for (int i = 0; keys.size() < n && i < 10'000; ++i) {
    const std::string key = "k" + std::to_string(i);
    const std::uint32_t s = reg.shard_of_cell(kApp, {"d", key});
    bool taken = false;
    for (std::uint32_t seen : shards) taken = taken || seen == s;
    if (!taken) {
      keys.push_back(key);
      shards.push_back(s);
    }
  }
  EXPECT_EQ(keys.size(), n) << "could not find keys on distinct shards";
  return keys;
}

// ---------------------------------------------------------------------------
// Shard routing
// ---------------------------------------------------------------------------

TEST(RegistryShards, DefaultsAndClamping) {
  RegistryService def(4, nullptr);
  EXPECT_EQ(def.shard_count(), RegistryService::kDefaultShards);
  RegistryService one_shard(4, nullptr, 0, 1);
  EXPECT_EQ(one_shard.shard_count(), 1u);
  RegistryService zero(4, nullptr, 0, 0);
  EXPECT_GE(zero.shard_count(), 1u);
  RegistryService huge(4, nullptr, 0, 1000);
  EXPECT_EQ(huge.shard_count(), RegistryService::kMaxShards);
}

TEST(RegistryShards, ShardOfCellIsStableAndInRange) {
  RegistryService reg(4, nullptr, 0, 8);
  for (int i = 0; i < 100; ++i) {
    const CellKey cell{"d", std::to_string(i)};
    const std::uint32_t s = reg.shard_of_cell(kApp, cell);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(s, reg.shard_of_cell(kApp, cell));
  }
}

TEST(RegistryShards, OpsAndResolvesCountPerShard) {
  RegistryService reg(4, nullptr, 0, 8);
  const auto keys = keys_on_distinct_shards(reg, 2);
  const std::uint32_t s0 = reg.shard_of_cell(kApp, {"d", keys[0]});
  const std::uint32_t s1 = reg.shard_of_cell(kApp, {"d", keys[1]});
  reg.resolve_or_create(kApp, one(keys[0]), 1, false, 0);
  EXPECT_GE(reg.shard_stats(s0).ops, 1u);
  EXPECT_EQ(reg.shard_stats(s0).resolves, 1u);
  EXPECT_EQ(reg.shard_stats(s1).resolves, 0u);
}

// ---------------------------------------------------------------------------
// Cross-shard cache isolation (the tentpole property)
// ---------------------------------------------------------------------------

TEST(RegistryShards, WriteToOneShardKeepsOtherShardsCached) {
  RegistryService reg(4, nullptr, 0, 8);
  RegistryService::Client client(reg, 1);
  const auto keys = keys_on_distinct_shards(reg, 2);
  const CellSet cells_a = one(keys[0]);
  const CellSet cells_b = one(keys[1]);

  const auto out_a = client.resolve_or_create(kApp, cells_a, false, 0);
  const auto out_b = client.resolve_or_create(kApp, cells_b, false, 0);
  ASSERT_NE(out_a.bee, kNoBee);
  ASSERT_NE(out_b.bee, kNoBee);

  // Ownership write against B's shard: move B's bee to another hive.
  reg.move_bee(out_b.bee, 3, 0);

  // A still serves from cache: hits grow, misses do not.
  const std::uint64_t hits = client.cache_hits();
  const std::uint64_t misses = client.cache_misses();
  const auto again = client.resolve_or_create(kApp, cells_a, false, 0);
  EXPECT_EQ(again.bee, out_a.bee);
  EXPECT_EQ(client.cache_hits(), hits + 1);
  EXPECT_EQ(client.cache_misses(), misses);

  // B's cached location was invalidated: its next lookup goes to the
  // master and learns the new hive.
  const auto moved = client.resolve_or_create(kApp, cells_b, false, 0);
  EXPECT_EQ(moved.bee, out_b.bee);
  EXPECT_EQ(moved.hive, 3u);
  EXPECT_EQ(client.cache_hits(), hits + 1);
  EXPECT_EQ(client.cache_misses(), misses + 1);
}

TEST(RegistryShards, AlternatingShardsKeepHittingTheCache) {
  // The cache keeps every resolved cell set, not just the last one:
  // alternating between two cell sets on different shards never misses.
  RegistryService reg(4, nullptr, 0, 8);
  RegistryService::Client client(reg, 1);
  const auto keys = keys_on_distinct_shards(reg, 2);
  client.resolve_or_create(kApp, one(keys[0]), false, 0);
  client.resolve_or_create(kApp, one(keys[1]), false, 0);
  const std::uint64_t misses = client.cache_misses();
  const std::uint64_t hits = client.cache_hits();
  for (int i = 0; i < 10; ++i) {
    client.resolve_or_create(kApp, one(keys[i % 2]), false, 0);
  }
  EXPECT_EQ(client.cache_misses(), misses);
  EXPECT_EQ(client.cache_hits(), hits + 10);
}

TEST(RegistryShards, CrossShardMergeCollocatesAndInvalidatesBothShards) {
  RegistryService reg(4, nullptr, 0, 8);
  RegistryService::Client client(reg, 1);
  const auto keys = keys_on_distinct_shards(reg, 2);
  const auto out_a = client.resolve_or_create(kApp, one(keys[0]), false, 0);
  const auto out_b = client.resolve_or_create(kApp, one(keys[1]), false, 0);

  CellSet both;
  both.insert({"d", keys[0]});
  both.insert({"d", keys[1]});
  const auto merged = client.resolve_or_create(kApp, both, false, 0);
  ASSERT_NE(merged.bee, kNoBee);
  EXPECT_EQ(merged.losers.size(), 1u);

  // All three cell sets now resolve to the same (collocated) bee.
  EXPECT_EQ(client.resolve_or_create(kApp, one(keys[0]), false, 0).bee,
            merged.bee);
  EXPECT_EQ(client.resolve_or_create(kApp, one(keys[1]), false, 0).bee,
            merged.bee);
  const bool winner_was_a = merged.bee == out_a.bee;
  EXPECT_TRUE(winner_was_a || merged.bee == out_b.bee);

  // The merge invalidated the loser's cached location: looking the loser
  // up again misses and follows the master's forwarding to the winner.
  const BeeId loser = winner_was_a ? out_b.bee : out_a.bee;
  const std::uint64_t misses = client.cache_misses();
  EXPECT_EQ(client.hive_of(loser, 0), std::optional<HiveId>(merged.hive));
  EXPECT_EQ(client.cache_misses(), misses + 1);
}

TEST(RegistryShards, WholeDictAbsorbsKeysAcrossAllShards) {
  RegistryService reg(4, nullptr, 0, 8);
  for (int i = 0; i < 32; ++i) {
    reg.resolve_or_create(kApp, one("w" + std::to_string(i)), 1, false, 0);
  }
  const auto star =
      reg.resolve_or_create(kApp, CellSet::whole_dict("d"), 2, false, 0);
  ASSERT_NE(star.bee, kNoBee);
  // The winner is one of the 32 existing bees (31 losers) unless the
  // registry minted a fresh owner (then all 32 lose).
  EXPECT_EQ(star.losers.size(), star.created ? 32u : 31u);
  // Every key now routes to the whole-dict owner, from every shard.
  for (int i = 0; i < 32; ++i) {
    const auto out =
        reg.resolve_or_create(kApp, one("w" + std::to_string(i)), 1, false, 0);
    EXPECT_EQ(out.bee, star.bee);
  }
}

// ---------------------------------------------------------------------------
// Determinism: sharded == unsharded under seeded faults
// ---------------------------------------------------------------------------

struct Observed {
  BeeId bee;
  HiveId hive;
  std::size_t losers;
  bool operator==(const Observed&) const = default;
};

/// Runs a seeded operation mix (creates, repeats, merges, whole-dict
/// absorbs, moves) through a client whose RPC channel drops every 7th
/// attempt, and records what each operation observed.
std::vector<Observed> run_scripted(std::size_t n_shards,
                                   std::uint64_t seed) {
  RegistryService reg(8, nullptr, 0, n_shards);
  std::uint64_t attempt = 0;
  reg.set_rpc_fault_hook([&attempt](HiveId) { return ++attempt % 7 == 0; });
  RegistryService::Client client(reg, 1);
  Xoshiro256 rng(seed);
  std::vector<Observed> log;
  TimePoint now = 0;
  for (int op = 0; op < 400; ++op) {
    now += kSecond;  // outruns any client backoff window
    const std::uint64_t kind = rng.next_below(10);
    if (kind < 6) {
      // Point resolve over a small key space: mixes creates and repeats.
      const auto out = client.resolve_or_create(
          kApp, one("k" + std::to_string(rng.next_below(64))), false, now);
      log.push_back({out.bee, out.hive, out.losers.size()});
    } else if (kind < 8) {
      // Pairwise merge.
      CellSet cells;
      cells.insert({"d", "k" + std::to_string(rng.next_below(64))});
      cells.insert({"d", "k" + std::to_string(rng.next_below(64))});
      const auto out = client.resolve_or_create(kApp, cells, false, now);
      log.push_back({out.bee, out.hive, out.losers.size()});
    } else if (kind < 9) {
      // Side dictionaries: point creates, with an occasional whole-dict
      // absorb (the operation that locks every shard).
      const std::string dict = "side" + std::to_string(rng.next_below(4));
      const CellSet cells =
          rng.next_below(8) == 0
              ? CellSet::whole_dict(dict)
              : CellSet::single(dict, std::to_string(rng.next_below(8)));
      const auto out = client.resolve_or_create(kApp, cells, false, now);
      log.push_back({out.bee, out.hive, out.losers.size()});
    } else {
      // Service-side move of a known bee, if any resolved yet.
      if (!log.empty() && log.back().bee != kNoBee) {
        reg.move_bee_rpc(reg.live_successor(log.back().bee),
                         static_cast<HiveId>(rng.next_below(8)), 1, now);
      }
      log.push_back({kNoBee, 0, 0});
    }
  }
  // Fold the final ownership map in as well: same bees, same hives,
  // same cell counts.
  for (const BeeRecord& rec : reg.live_bees()) {
    log.push_back({rec.id, rec.hive, rec.cells.size()});
  }
  return log;
}

TEST(RegistryShards, ShardedAgreesWithUnshardedUnderSeededFaults) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const auto unsharded = run_scripted(1, seed);
    const auto sharded = run_scripted(8, seed);
    EXPECT_EQ(unsharded, sharded) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Cache validity: invalidation, not time
// ---------------------------------------------------------------------------

TEST(RegistryShards, CachedAssignmentIsServedUntilInvalidated) {
  RegistryService reg(4, nullptr, 0, 8);
  RegistryService::Client client(reg, 1);
  const CellSet cells = one("cached");
  const auto out = client.resolve_or_create(kApp, cells, false, 0);
  ASSERT_NE(out.bee, kNoBee);
  ASSERT_NE(out.hive, 2u);

  // Three hours later, with every RPC to the master lost, the cached
  // assignment is still served: only an invalidation retires it.
  constexpr TimePoint kLater = 3 * 3600 * kSecond;
  reg.set_rpc_fault_hook([](HiveId) { return true; });
  const std::uint64_t misses = client.cache_misses();
  const auto later = client.resolve_or_create(kApp, cells, false, kLater);
  EXPECT_EQ(later.bee, out.bee);
  EXPECT_EQ(later.hive, out.hive);
  EXPECT_EQ(client.cache_misses(), misses);
  EXPECT_EQ(client.rpc_failures(), 0u);

  // An ownership write invalidates the entry: the next lookup misses and
  // sees the new hive.
  reg.set_rpc_fault_hook(nullptr);
  reg.move_bee(out.bee, 2, kLater);
  const auto moved = client.resolve_or_create(kApp, cells, false, kLater);
  EXPECT_EQ(client.cache_misses(), misses + 1);
  EXPECT_EQ(moved.bee, out.bee);
  EXPECT_EQ(moved.hive, 2u);
}

// ---------------------------------------------------------------------------
// Concurrency
// ---------------------------------------------------------------------------

TEST(RegistryShards, ConcurrentResolvesAgreeOnOwnership) {
  RegistryService reg(8, nullptr, 0, 8);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  constexpr int kKeys = 64;
  std::vector<std::thread> workers;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kOpsPerThread && !failed; ++i) {
        const auto out = reg.resolve_or_create(
            kApp, one("c" + std::to_string(rng.next_below(kKeys))),
            static_cast<HiveId>(t), false, 0);
        if (out.bee == kNoBee) failed = true;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_FALSE(failed);
  // Quiesced: every key owned by exactly one live bee, and repeat resolves
  // are stable.
  for (int k = 0; k < kKeys; ++k) {
    const auto a =
        reg.resolve_or_create(kApp, one("c" + std::to_string(k)), 0, false, 0);
    const auto b =
        reg.resolve_or_create(kApp, one("c" + std::to_string(k)), 1, false, 0);
    EXPECT_EQ(a.bee, b.bee);
    EXPECT_TRUE(a.losers.empty());
  }
  EXPECT_LE(reg.live_bee_count(), static_cast<std::size_t>(kKeys));
}

// ---------------------------------------------------------------------------
// Incremental placement == full placement
// ---------------------------------------------------------------------------

ClusterView synth_view(std::uint64_t seed, RoundMode mode) {
  constexpr std::size_t kBees = 500;
  constexpr std::size_t kHives = 8;
  Xoshiro256 rng(seed);
  ClusterView view;
  view.n_hives = kHives;
  view.mode = mode;
  for (HiveId h = 0; h < kHives; ++h) {
    view.hive_cells[h] = 0;
    view.hive_pressure[h] = 0.4 * rng.next_double();
  }
  for (std::size_t i = 0; i < kBees; ++i) {
    const bool active = rng.next_double() < 0.1;
    BeeView bee;
    bee.bee = static_cast<BeeId>(i + 1);
    bee.app = kApp;
    bee.hive = static_cast<HiveId>(i % kHives);
    bee.cells = 1 + rng.next_below(3);
    view.hive_cells[bee.hive] += bee.cells;
    bee.dirty = active;
    if (active) {
      bee.msgs_in = 8 + rng.next_below(256);
      bee.cost_us = rng.next_below(2) == 0 ? bee.msgs_in * 5 : 0;
      const auto major = static_cast<HiveId>(rng.next_below(kHives));
      bee.inbound_by_hive[major] = (bee.msgs_in * 3) / 4;
      bee.inbound_by_hive[bee.hive] += bee.msgs_in / 4;
    }
    if (mode == RoundMode::kIncremental && !active) continue;
    view.bees.push_back(std::move(bee));
  }
  return view;
}

TEST(IncrementalPlacement, MatchesFullRoundForEveryStrategy) {
  GreedyFollowSources greedy;
  CostPressureStrategy costpressure;
  LoadBalanceStrategy loadbalance;
  PlacementStrategy* strategies[] = {&greedy, &costpressure, &loadbalance};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const ClusterView full = synth_view(seed, RoundMode::kFull);
    const ClusterView incr = synth_view(seed, RoundMode::kIncremental);
    for (PlacementStrategy* s : strategies) {
      EXPECT_EQ(s->decide(full), s->decide(incr))
          << s->name() << " seed " << seed;
    }
  }
}

TEST(IncrementalPlacement, FullViewWithIncrementalModeSkipsCleanBees) {
  // Even when clean bees ARE present in the view (the full sweep every K
  // rounds marks them clean), incremental mode must not move them.
  const ClusterView full = synth_view(3, RoundMode::kFull);
  ClusterView mixed = full;
  mixed.mode = RoundMode::kIncremental;
  GreedyFollowSources greedy;
  EXPECT_EQ(greedy.decide(full), greedy.decide(mixed));
}

TEST(IncrementalPlacement, RoundModeRoundTripsThroughPlacementRound) {
  PlacementRound round;
  round.round = 3;
  round.at = 99;
  round.strategy = "greedy";
  round.mode = "incremental";
  round.scored = 17;
  PlacementDecision d;
  d.bee = 5;
  d.to = 2;
  d.accepted = true;
  d.reason = "majority";
  round.decisions.push_back(d);
  ByteWriter w;
  round.encode(w);
  ByteReader r(w.bytes());
  const PlacementRound back = PlacementRound::decode(r);
  EXPECT_EQ(back.mode, "incremental");
  EXPECT_EQ(back.scored, 17u);
  EXPECT_EQ(back.round, 3u);
  ASSERT_EQ(back.decisions.size(), 1u);
  EXPECT_EQ(back.decisions[0].bee, 5u);
}

}  // namespace
}  // namespace beehive
