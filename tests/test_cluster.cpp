// Unit tests for the cluster layer: channel metering, the cell registry
// (lock service) and its client cache, and the discrete-event scheduler.
#include <gtest/gtest.h>

#include "cluster/channel.h"
#include "cluster/registry.h"
#include "cluster/sim.h"
#include "tests/test_helpers.h"

namespace beehive {
namespace {

// ---------------------------------------------------------------------------
// ChannelMeter
// ---------------------------------------------------------------------------

TEST(ChannelMeter, MatrixAccumulates) {
  ChannelMeter meter(3);
  meter.record(0, 1, 100, 0);
  meter.record(0, 1, 50, kSecond);
  meter.record(2, 0, 10, 0);
  EXPECT_EQ(meter.matrix_bytes(0, 1), 150u);
  EXPECT_EQ(meter.matrix_messages(0, 1), 2u);
  EXPECT_EQ(meter.matrix_bytes(2, 0), 10u);
  EXPECT_EQ(meter.matrix_bytes(1, 0), 0u);
  EXPECT_EQ(meter.total_bytes(), 160u);
  EXPECT_EQ(meter.total_messages(), 3u);
}

TEST(ChannelMeter, BandwidthSeriesBuckets) {
  ChannelMeter meter(2);
  meter.record(0, 1, 1024, 0);
  meter.record(0, 1, 2048, kSecond + 1);
  meter.record(1, 0, 512, 3 * kSecond + 500);
  auto series = meter.bandwidth_series();
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series[0], 1024u);
  EXPECT_EQ(series[1], 2048u);
  EXPECT_EQ(series[2], 0u);
  EXPECT_EQ(series[3], 512u);
  auto kbps = meter.bandwidth_kbps();
  EXPECT_DOUBLE_EQ(kbps[0], 1.0);
  EXPECT_DOUBLE_EQ(kbps[1], 2.0);
}

TEST(ChannelMeter, HiveShareIdentifiesHotspot) {
  ChannelMeter meter(4);
  // Everything flows to/from hive 2.
  meter.record(0, 2, 100, 0);
  meter.record(1, 2, 100, 0);
  meter.record(2, 3, 100, 0);
  EXPECT_DOUBLE_EQ(meter.hive_share(2), 1.0);
  EXPECT_DOUBLE_EQ(meter.hotspot_share(), 1.0);
  meter.record(0, 1, 300, 0);
  EXPECT_DOUBLE_EQ(meter.hive_share(2), 0.5);
}

TEST(ChannelMeter, ResetClearsEverything) {
  ChannelMeter meter(2);
  meter.record(0, 1, 100, 0);
  meter.reset();
  EXPECT_EQ(meter.total_bytes(), 0u);
  EXPECT_TRUE(meter.bandwidth_series().empty());
}

TEST(ChannelMeter, AsciiHeatmapShape) {
  ChannelMeter meter(10);
  meter.record(0, 9, 1000, 0);
  std::string map = meter.ascii_heatmap(5);
  // 5 rows of 5 cells + newlines.
  EXPECT_EQ(map.size(), 5u * 6u);
  EXPECT_NE(map.find('@'), std::string::npos);
}

// ---------------------------------------------------------------------------
// RegistryService
// ---------------------------------------------------------------------------

class RegistryTest : public ::testing::Test {
 protected:
  static constexpr AppId kApp = 77;
  ChannelMeter meter_{4};
  RegistryService registry_{4, &meter_};
};

TEST_F(RegistryTest, CreatesBeeOnRequestingHive) {
  auto out = registry_.resolve_or_create(kApp, CellSet::single("d", "k"), 2,
                                         false, 0);
  EXPECT_TRUE(out.created);
  EXPECT_EQ(out.hive, 2u);
  EXPECT_TRUE(out.losers.empty());
  EXPECT_EQ(bee_home_hive(out.bee), 2u);
  EXPECT_EQ(registry_.hive_of(out.bee), 2u);
}

TEST_F(RegistryTest, SecondResolveFindsSameBee) {
  auto a = registry_.resolve_or_create(kApp, CellSet::single("d", "k"), 1,
                                       false, 0);
  auto b = registry_.resolve_or_create(kApp, CellSet::single("d", "k"), 3,
                                       false, 0);
  EXPECT_FALSE(b.created);
  EXPECT_EQ(a.bee, b.bee);
  EXPECT_EQ(b.hive, 1u);
}

TEST_F(RegistryTest, DisjointCellsGetDistinctBees) {
  auto a = registry_.resolve_or_create(kApp, CellSet::single("d", "k1"), 0,
                                       false, 0);
  auto b = registry_.resolve_or_create(kApp, CellSet::single("d", "k2"), 1,
                                       false, 0);
  EXPECT_NE(a.bee, b.bee);
  EXPECT_EQ(registry_.live_bee_count(), 2u);
}

TEST_F(RegistryTest, AppsAreIsolated) {
  auto a =
      registry_.resolve_or_create(1, CellSet::single("d", "k"), 0, false, 0);
  auto b =
      registry_.resolve_or_create(2, CellSet::single("d", "k"), 0, false, 0);
  EXPECT_NE(a.bee, b.bee);
}

TEST_F(RegistryTest, IntersectingSetsMergeToOneBee) {
  auto a = registry_.resolve_or_create(kApp, CellSet{{"d", "k1"}}, 0, false,
                                       0);
  auto b = registry_.resolve_or_create(kApp, CellSet{{"d", "k2"}}, 1, false,
                                       0);
  // {k1, k2} spans both bees: one must win, the other is reported a loser.
  auto c = registry_.resolve_or_create(kApp, CellSet{{"d", "k1"}, {"d", "k2"}},
                                       2, false, 0);
  EXPECT_EQ(c.losers.size(), 1u);
  EXPECT_TRUE(c.bee == a.bee || c.bee == b.bee);
  EXPECT_NE(c.losers[0].bee, c.bee);
  // Both cells now resolve to the winner.
  auto k1 = registry_.resolve_or_create(kApp, CellSet{{"d", "k1"}}, 3, false,
                                        0);
  auto k2 = registry_.resolve_or_create(kApp, CellSet{{"d", "k2"}}, 3, false,
                                        0);
  EXPECT_EQ(k1.bee, c.bee);
  EXPECT_EQ(k2.bee, c.bee);
  EXPECT_EQ(registry_.live_bee_count(), 1u);
}

TEST_F(RegistryTest, LoserForwardsToWinner) {
  auto a =
      registry_.resolve_or_create(kApp, CellSet{{"d", "k1"}}, 0, false, 0);
  auto b =
      registry_.resolve_or_create(kApp, CellSet{{"d", "k2"}}, 1, false, 0);
  auto c = registry_.resolve_or_create(kApp, CellSet{{"d", "k1"}, {"d", "k2"}},
                                       2, false, 0);
  BeeId loser = c.losers[0].bee;
  EXPECT_EQ(registry_.live_successor(loser), c.bee);
  EXPECT_EQ(registry_.hive_of(loser), registry_.hive_of(c.bee));
  (void)a;
  (void)b;
}

TEST_F(RegistryTest, WholeDictAbsorbsAllKeysOfDict) {
  auto k1 =
      registry_.resolve_or_create(kApp, CellSet{{"d", "k1"}}, 0, false, 0);
  auto k2 =
      registry_.resolve_or_create(kApp, CellSet{{"d", "k2"}}, 1, false, 0);
  auto whole = registry_.resolve_or_create(kApp, CellSet::whole_dict("d"), 2,
                                           false, 0);
  EXPECT_EQ(whole.losers.size(), 1u);  // two owners -> one winner, one loser
  EXPECT_TRUE(whole.bee == k1.bee || whole.bee == k2.bee);
  // New keys of d now belong to the whole-dict owner.
  auto k3 =
      registry_.resolve_or_create(kApp, CellSet{{"d", "k3"}}, 3, false, 0);
  EXPECT_FALSE(k3.created);
  EXPECT_EQ(k3.bee, whole.bee);
}

TEST_F(RegistryTest, WholeDictFirstThenKeysCentralizesImmediately) {
  auto whole = registry_.resolve_or_create(kApp, CellSet::whole_dict("d"), 3,
                                           false, 0);
  EXPECT_TRUE(whole.created);
  for (int i = 0; i < 5; ++i) {
    auto k = registry_.resolve_or_create(
        kApp, CellSet{{"d", "k" + std::to_string(i)}}, static_cast<HiveId>(i % 4),
        false, 0);
    EXPECT_EQ(k.bee, whole.bee) << i;
  }
  EXPECT_EQ(registry_.live_bee_count(), 1u);
}

TEST_F(RegistryTest, PinnedBeeWinsMerges) {
  auto pinned =
      registry_.resolve_or_create(kApp, CellSet{{"d", "a"}}, 0, true, 0);
  auto other =
      registry_.resolve_or_create(kApp, CellSet{{"d", "b"}}, 1, false, 0);
  auto merged = registry_.resolve_or_create(
      kApp, CellSet{{"d", "a"}, {"d", "b"}}, 2, false, 0);
  EXPECT_EQ(merged.bee, pinned.bee);
  EXPECT_EQ(merged.losers[0].bee, other.bee);
}

TEST_F(RegistryTest, MoveBeeUpdatesLocation) {
  auto out =
      registry_.resolve_or_create(kApp, CellSet{{"d", "k"}}, 0, false, 0);
  registry_.move_bee(out.bee, 3, 0);
  EXPECT_EQ(registry_.hive_of(out.bee), 3u);
}

TEST_F(RegistryTest, PlacementHookOverridesCreation) {
  registry_.set_placement_hook(
      [](AppId, const CellSet&, HiveId) -> HiveId { return 1; });
  auto out =
      registry_.resolve_or_create(kApp, CellSet{{"d", "k"}}, 3, false, 0);
  EXPECT_EQ(out.hive, 1u);
}

TEST_F(RegistryTest, CellsOnHiveCounts) {
  registry_.resolve_or_create(kApp, CellSet{{"d", "a"}, {"d", "b"}}, 1, false,
                              0);
  registry_.resolve_or_create(kApp, CellSet{{"d", "c"}}, 1, false, 0);
  registry_.resolve_or_create(kApp, CellSet{{"d", "z"}}, 2, false, 0);
  EXPECT_EQ(registry_.cells_on_hive(1), 3u);
  EXPECT_EQ(registry_.cells_on_hive(2), 1u);
  EXPECT_EQ(registry_.cells_on_hive(3), 0u);
}

TEST_F(RegistryTest, RemoteRpcIsBilledLocalIsNot) {
  std::uint64_t before = meter_.total_bytes();
  registry_.resolve_or_create(kApp, CellSet{{"d", "k"}}, 0, false, 0);
  EXPECT_EQ(meter_.total_bytes(), before);  // hive 0 hosts the registry
  registry_.resolve_or_create(kApp, CellSet{{"d", "k2"}}, 2, false, 0);
  EXPECT_GT(meter_.total_bytes(), before);
  EXPECT_GT(meter_.matrix_bytes(2, 0), 0u);  // request
  EXPECT_GT(meter_.matrix_bytes(0, 2), 0u);  // response
}

// ---------------------------------------------------------------------------
// Transfer-fence accounting
// ---------------------------------------------------------------------------

TEST_F(RegistryTest, FreshBeeHasZeroExpectedTransfers) {
  auto out =
      registry_.resolve_or_create(kApp, CellSet{{"d", "k"}}, 0, false, 0);
  EXPECT_TRUE(out.created);
  EXPECT_EQ(out.transfers_expected, 0u);
  EXPECT_EQ(registry_.expected_transfers(out.bee), 0u);
}

TEST_F(RegistryTest, MergeBumpsWinnerExpectedByOnePerLoser) {
  registry_.resolve_or_create(kApp, CellSet{{"d", "a"}}, 0, false, 0);
  registry_.resolve_or_create(kApp, CellSet{{"d", "b"}}, 1, false, 0);
  registry_.resolve_or_create(kApp, CellSet{{"d", "c"}}, 2, false, 0);
  auto merged = registry_.resolve_or_create(
      kApp, CellSet{{"d", "a"}, {"d", "b"}, {"d", "c"}}, 3, false, 0);
  EXPECT_EQ(merged.losers.size(), 2u);
  EXPECT_EQ(merged.transfers_expected, 2u);
  EXPECT_EQ(registry_.expected_transfers(merged.bee), 2u);
}

TEST_F(RegistryTest, ChainedMergeInheritsLoserLedger) {
  // a+b merge (winner W1 expects 1), then W1 loses to the a+b+c winner:
  // the super-winner inherits 1 (W1 snapshot) + W1's own 1.
  registry_.resolve_or_create(kApp, CellSet{{"d", "a"}}, 0, false, 0);
  registry_.resolve_or_create(kApp, CellSet{{"d", "b"}}, 1, false, 0);
  auto first = registry_.resolve_or_create(
      kApp, CellSet{{"d", "a"}, {"d", "b"}}, 2, false, 0);
  ASSERT_EQ(first.transfers_expected, 1u);
  registry_.resolve_or_create(kApp, CellSet{{"d", "c"}}, 3, false, 0);
  auto second = registry_.resolve_or_create(
      kApp, CellSet{{"d", "b"}, {"d", "c"}}, 3, false, 0);
  // Winner is `first` (more cells): inherits c-bee's ledger (1 + 0).
  EXPECT_EQ(second.bee, first.bee);
  EXPECT_EQ(second.transfers_expected, 2u);
}

TEST_F(RegistryTest, AddAndResetExpectedTransfers) {
  // Two merge losers add one expected transfer each to the winner.
  registry_.resolve_or_create(kApp, CellSet{{"d", "a"}}, 0, false, 0);
  registry_.resolve_or_create(kApp, CellSet{{"d", "b"}}, 1, false, 0);
  registry_.resolve_or_create(kApp, CellSet{{"d", "c"}}, 2, false, 0);
  auto out = registry_.resolve_or_create(
      kApp, CellSet{{"d", "a"}, {"d", "b"}, {"d", "c"}}, 3, false, 0);
  EXPECT_EQ(registry_.expected_transfers(out.bee), 2u);
  registry_.reset_expected_transfers(out.bee);
  EXPECT_EQ(registry_.expected_transfers(out.bee), 0u);
  EXPECT_EQ(registry_.expected_transfers(0xdeadbeef), 0u);
}

// ---------------------------------------------------------------------------
// Registry client cache
// ---------------------------------------------------------------------------

TEST_F(RegistryTest, ClientCacheHitAvoidsTraffic) {
  RegistryService::Client client(registry_, 2);
  auto first =
      client.resolve_or_create(kApp, CellSet{{"d", "k"}}, false, 0);
  std::uint64_t bytes_after_miss = meter_.total_bytes();
  auto second =
      client.resolve_or_create(kApp, CellSet{{"d", "k"}}, false, 0);
  EXPECT_EQ(second.bee, first.bee);
  EXPECT_EQ(meter_.total_bytes(), bytes_after_miss);  // no extra RPC
  EXPECT_EQ(client.cache_hits(), 1u);
  EXPECT_EQ(client.cache_misses(), 1u);
}

TEST_F(RegistryTest, InvalidationForcesRefetch) {
  RegistryService::Client client(registry_, 2);
  auto first = client.resolve_or_create(kApp, CellSet{{"d", "k"}}, false, 0);
  registry_.move_bee(first.bee, 3, 0);  // invalidates the client's cache
  auto second = client.resolve_or_create(kApp, CellSet{{"d", "k"}}, false, 0);
  EXPECT_EQ(second.bee, first.bee);
  EXPECT_EQ(second.hive, 3u);
  EXPECT_EQ(client.cache_misses(), 2u);
}

TEST_F(RegistryTest, CacheSpanningTwoBeesFallsThrough) {
  RegistryService::Client client(registry_, 1);
  auto a = client.resolve_or_create(kApp, CellSet{{"d", "a"}}, false, 0);
  auto b = client.resolve_or_create(kApp, CellSet{{"d", "b"}}, false, 0);
  ASSERT_NE(a.bee, b.bee);
  // Cached individually, but the pair requires a merge decision -> RPC.
  auto merged = client.resolve_or_create(
      kApp, CellSet{{"d", "a"}, {"d", "b"}}, false, 0);
  EXPECT_EQ(merged.losers.size(), 1u);
}

TEST_F(RegistryTest, ClientHiveOfCachesLocation) {
  RegistryService::Client client(registry_, 3);
  auto out =
      registry_.resolve_or_create(kApp, CellSet{{"d", "k"}}, 0, false, 0);
  auto h1 = client.hive_of(out.bee, 0);
  ASSERT_TRUE(h1.has_value());
  EXPECT_EQ(*h1, 0u);
  std::uint64_t bytes = meter_.total_bytes();
  auto h2 = client.hive_of(out.bee, 0);
  EXPECT_EQ(*h2, 0u);
  EXPECT_EQ(meter_.total_bytes(), bytes);
  EXPECT_FALSE(client.hive_of(0xdeadbeefdeadbeefull, 0).has_value());
}

// ---------------------------------------------------------------------------
// SimCluster event scheduling
// ---------------------------------------------------------------------------

TEST(SimClusterSched, EventsRunInTimeOrder) {
  AppSet apps;
  SimCluster sim({.n_hives = 1}, apps);
  std::vector<int> order;
  sim.schedule_after(0, 300, [&order]() { order.push_back(3); });
  sim.schedule_after(0, 100, [&order]() { order.push_back(1); });
  sim.schedule_after(0, 200, [&order]() { order.push_back(2); });
  sim.run_to_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(SimClusterSched, TiesBreakByScheduleOrder) {
  AppSet apps;
  SimCluster sim({.n_hives = 1}, apps);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_after(0, 50, [&order, i]() { order.push_back(i); });
  }
  sim.run_to_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimClusterSched, RunUntilLeavesFutureEvents) {
  AppSet apps;
  SimCluster sim({.n_hives = 1}, apps);
  int ran = 0;
  sim.schedule_after(0, 100, [&ran]() { ++ran; });
  sim.schedule_after(0, 5000, [&ran]() { ++ran; });
  sim.run_until(1000);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), 1000);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_to_idle();
  EXPECT_EQ(ran, 2);
}

TEST(SimClusterSched, NestedSchedulingWorks) {
  AppSet apps;
  SimCluster sim({.n_hives = 1}, apps);
  int depth = 0;
  std::function<void()> chain = [&]() {
    if (++depth < 10) sim.schedule_after(0, 10, chain);
  };
  sim.schedule_after(0, 10, chain);
  sim.run_to_idle();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 100);
}

}  // namespace
}  // namespace beehive
