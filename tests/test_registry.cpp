// Tests for the registry service behind its one lock (DESIGN.md §13): the
// stats row, client-cache isolation between bees, the cache's hit and miss
// counts over a fixed lookup mix, cache validity by invalidation alone,
// cache fills racing ownership writes and concurrent resolves.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/registry.h"
#include "util/rng.h"

namespace beehive {
namespace {

constexpr AppId kApp = 1;

CellSet one(const std::string& key) { return CellSet::single("d", key); }

// ---------------------------------------------------------------------------
// The stats row
// ---------------------------------------------------------------------------

TEST(RegistryLock, OpsAndResolvesCountInOneStatsRow) {
  RegistryService reg(4, nullptr);
  RegistryService::Client client(reg, 1);
  const RegistryStats before = reg.stats();
  client.resolve_or_create(kApp, one("a"), false, 0);
  const RegistryStats after_miss = reg.stats();
  EXPECT_GE(after_miss.ops, before.ops + 1);
  EXPECT_EQ(after_miss.resolves, before.resolves + 1);
  // A cache hit and reading the row take no lock operation.
  client.resolve_or_create(kApp, one("a"), false, 0);
  EXPECT_EQ(reg.stats().ops, after_miss.ops);
  EXPECT_EQ(reg.stats().resolves, after_miss.resolves);
}

// ---------------------------------------------------------------------------
// Client-cache isolation between bees
// ---------------------------------------------------------------------------

TEST(RegistryClient, WriteToOneBeeKeepsOtherBeesCached) {
  RegistryService reg(4, nullptr);
  RegistryService::Client client(reg, 1);
  const CellSet cells_a = one("a");
  const CellSet cells_b = one("b");

  const auto out_a = client.resolve_or_create(kApp, cells_a, false, 0);
  const auto out_b = client.resolve_or_create(kApp, cells_b, false, 0);
  ASSERT_NE(out_a.bee, kNoBee);
  ASSERT_NE(out_b.bee, kNoBee);

  // Ownership write against B: move B's bee to another hive.
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

TEST(RegistryClient, HotKeysMissOnceAndColdKeysAlways) {
  // 10k lookups on a 16-hive registry: nine in ten cycle over 64 hot keys,
  // every tenth creates a new cold key. Each hot key misses on its first
  // lookup only and every cold key misses: 64 + 1000 misses.
  RegistryService reg(16, nullptr);
  RegistryService::Client client(reg, 1);
  std::vector<CellSet> hot;
  for (int i = 0; i < 64; ++i) hot.push_back(one("hot" + std::to_string(i)));
  std::size_t cold = 0;
  for (std::size_t i = 0; i < 10'000; ++i) {
    const CellSet cells = i % 10 != 0
                              ? hot[i % hot.size()]
                              : one("cold" + std::to_string(++cold));
    ASSERT_NE(client.resolve_or_create(kApp, cells, false, 0).bee, kNoBee);
  }
  EXPECT_EQ(client.cache_hits(), 8936u);
  EXPECT_EQ(client.cache_misses(), 1064u);
}

TEST(RegistryClient, AlternatingCellSetsKeepHittingTheCache) {
  // The cache keeps every resolved cell set, not just the last one:
  // alternating between two cell sets never misses.
  RegistryService reg(4, nullptr);
  RegistryService::Client client(reg, 1);
  client.resolve_or_create(kApp, one("a"), false, 0);
  client.resolve_or_create(kApp, one("b"), false, 0);
  const std::uint64_t misses = client.cache_misses();
  const std::uint64_t hits = client.cache_hits();
  for (int i = 0; i < 10; ++i) {
    client.resolve_or_create(kApp, one(i % 2 == 0 ? "a" : "b"), false, 0);
  }
  EXPECT_EQ(client.cache_misses(), misses);
  EXPECT_EQ(client.cache_hits(), hits + 10);
}

TEST(RegistryClient, MergeCollocatesAndInvalidatesTheLoser) {
  RegistryService reg(4, nullptr);
  RegistryService::Client client(reg, 1);
  const auto out_a = client.resolve_or_create(kApp, one("a"), false, 0);
  const auto out_b = client.resolve_or_create(kApp, one("b"), false, 0);

  CellSet both;
  both.insert({"d", "a"});
  both.insert({"d", "b"});
  const auto merged = client.resolve_or_create(kApp, both, false, 0);
  ASSERT_NE(merged.bee, kNoBee);
  EXPECT_EQ(merged.losers.size(), 1u);

  // All three cell sets now resolve to the same (collocated) bee.
  EXPECT_EQ(client.resolve_or_create(kApp, one("a"), false, 0).bee,
            merged.bee);
  EXPECT_EQ(client.resolve_or_create(kApp, one("b"), false, 0).bee,
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

TEST(RegistryLock, WholeDictAbsorbsEveryKeyOfTheDict) {
  RegistryService reg(4, nullptr);
  for (int i = 0; i < 32; ++i) {
    reg.resolve_or_create(kApp, one("w" + std::to_string(i)), 1, false, 0);
  }
  const auto star =
      reg.resolve_or_create(kApp, CellSet::whole_dict("d"), 2, false, 0);
  ASSERT_NE(star.bee, kNoBee);
  // The winner is one of the 32 existing bees (31 losers) unless the
  // registry minted a fresh owner (then all 32 lose).
  EXPECT_EQ(star.losers.size(), star.created ? 32u : 31u);
  // Every key now routes to the whole-dict owner.
  for (int i = 0; i < 32; ++i) {
    const auto out =
        reg.resolve_or_create(kApp, one("w" + std::to_string(i)), 1, false, 0);
    EXPECT_EQ(out.bee, star.bee);
  }
}

// ---------------------------------------------------------------------------
// Cache validity: invalidation, not time
// ---------------------------------------------------------------------------

TEST(RegistryClient, CachedAssignmentIsServedUntilInvalidated) {
  RegistryService reg(4, nullptr);
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

TEST(RegistryLock, ConcurrentResolvesAgreeOnOwnership) {
  RegistryService reg(8, nullptr);
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

TEST(RegistryClient, CacheFillDoesNotOutliveAConcurrentInvalidation) {
  // Each round: a mover thread bounces a fresh bee between hives 2 and 3
  // while the client on hive 1 misses on the bee's cell once. After the
  // mover stops, the bee moves to hive 0. If the client filled its cache
  // after a concurrent move had already invalidated it, nothing retires
  // that entry and the next lookup answers a stale hive.
  constexpr int kRounds = 5000;
  constexpr int kMovesBeforeResolve = 100;
  RegistryService reg(4, nullptr);
  RegistryService::Client client(reg, 1);
  std::atomic<BeeId> bee{kNoBee};
  std::atomic<int> moves{0};
  std::atomic<int> go_round{-1};
  std::atomic<int> stop_round{-1};
  std::atomic<int> done_round{-1};
  std::thread mover([&] {
    for (int r = 0; r < kRounds; ++r) {
      while (go_round.load(std::memory_order_acquire) < r) {
        std::this_thread::yield();
      }
      const BeeId target = bee.load(std::memory_order_relaxed);
      for (int i = 0; stop_round.load(std::memory_order_acquire) < r; ++i) {
        reg.move_bee(target, i % 2 == 0 ? 2 : 3, 0);
        moves.fetch_add(1, std::memory_order_release);
      }
      done_round.store(r, std::memory_order_release);
    }
  });
  int stale = 0;
  for (int r = 0; r < kRounds; ++r) {
    const CellSet cells = one("r" + std::to_string(r));
    bee.store(reg.resolve_or_create(kApp, cells, 0, false, 0).bee,
              std::memory_order_relaxed);
    moves.store(0, std::memory_order_relaxed);
    go_round.store(r, std::memory_order_release);
    while (moves.load(std::memory_order_acquire) < kMovesBeforeResolve) {
      std::this_thread::yield();
    }
    client.resolve_or_create(kApp, cells, false, 0);  // a cache miss
    stop_round.store(r, std::memory_order_release);
    while (done_round.load(std::memory_order_acquire) < r) {
      std::this_thread::yield();
    }
    reg.move_bee(bee.load(std::memory_order_relaxed), 0, 0);
    if (client.resolve_or_create(kApp, cells, false, 0).hive != 0) ++stale;
  }
  mover.join();
  EXPECT_EQ(stale, 0) << "of " << kRounds << " rounds";
}

}  // namespace
}  // namespace beehive
