// Tests for runtime instrumentation: per-bee metrics, the collector app
// (aggregation as a Beehive application), and placement strategies.
#include <gtest/gtest.h>

#include "cluster/sim.h"
#include "core/bee.h"
#include "instrument/collector.h"
#include "instrument/metrics.h"
#include "placement/strategy.h"
#include "tests/test_helpers.h"

namespace beehive {
namespace {

using testing::CounterApp;
using testing::I64;
using testing::Incr;

// ---------------------------------------------------------------------------
// BeeMetrics & samples
// ---------------------------------------------------------------------------

TEST(BeeMetrics, ReceiveAndEmitAccounting) {
  // The path the hive runs per message: note_receive, then note_emit per
  // emission. The second receive repeats the first's (source, hive, type)
  // and takes the memoized counter slots; the fourth is a timer tick, which
  // counts as load and by type but not as provenance.
  Bee bee(make_bee_id(0, 1), /*app=*/5);
  const BeeId a = make_bee_id(1, 7);
  const BeeId b = make_bee_id(2, 9);
  bee.note_receive(a, 1, 100, /*count_provenance=*/true, /*type=*/3);
  bee.note_receive(a, 1, 50, true, 3);
  bee.note_receive(b, 2, 10, true, 3);
  bee.note_receive(kNoBee, 0, 5, /*count_provenance=*/false, 4);
  bee.note_emit(3, 6, 30);
  const BeeMetrics& m = bee.window();
  EXPECT_EQ(m.msgs_in, 4u);
  EXPECT_EQ(m.bytes_in, 165u);
  EXPECT_EQ(m.inbound_hive.size(), 2u);
  EXPECT_EQ((m.inbound_hive.at({a, 1})), 2u);
  EXPECT_EQ((m.inbound_hive.at({b, 2})), 1u);
  EXPECT_EQ(m.inbound_types.size(), 2u);
  EXPECT_EQ(m.inbound_types.at(3), 3u);
  EXPECT_EQ(m.inbound_types.at(4), 1u);
  EXPECT_EQ(m.msgs_out, 1u);
  EXPECT_EQ(m.bytes_out, 30u);
  EXPECT_EQ((m.causation.at({3, 6})), 1u);

  // reset_window() drops the memo with the maps it pointed into: repeating
  // the last combination, then the first one twice, counts in the new
  // window only.
  bee.reset_window();
  bee.note_receive(kNoBee, 0, 5, false, 4);
  bee.note_receive(a, 1, 100, true, 3);
  bee.note_receive(a, 1, 100, true, 3);
  EXPECT_EQ(m.msgs_in, 3u);
  EXPECT_EQ(m.inbound_types.at(4), 1u);
  EXPECT_EQ(m.inbound_types.at(3), 2u);
  EXPECT_EQ(m.inbound_hive.size(), 1u);
  EXPECT_EQ((m.inbound_hive.at({a, 1})), 2u);
  EXPECT_TRUE(m.causation.empty());
}

TEST(BeeMetricsSample, CodecRoundTrip) {
  BeeMetricsSample s;
  s.bee = make_bee_id(3, 9);
  s.app = 42;
  s.hive = 3;
  s.msgs_in = 100;
  s.cells = 7;
  s.pinned = true;
  s.sources.push_back({make_bee_id(1, 1), 1, 55});
  s.sources.push_back({kNoBee, 3, 2});
  auto back = decode_from_bytes<BeeMetricsSample>(encode_to_bytes(s));
  EXPECT_EQ(back.bee, s.bee);
  EXPECT_EQ(back.msgs_in, 100u);
  EXPECT_TRUE(back.pinned);
  ASSERT_EQ(back.sources.size(), 2u);
  EXPECT_EQ(back.sources[0].count, 55u);
  EXPECT_EQ(back.sources[1].from_hive, 3u);
}

TEST(LocalMetricsReportMsg, CodecRoundTrip) {
  LocalMetricsReport r;
  r.hive = 11;
  r.at = 5 * kSecond;
  r.signals.cells = 30;
  r.bees.resize(3);
  r.bees[1].msgs_in = 9;
  auto back = decode_from_bytes<LocalMetricsReport>(encode_to_bytes(r));
  EXPECT_EQ(back.hive, 11u);
  EXPECT_EQ(back.at, 5 * kSecond);
  EXPECT_EQ(back.signals.cells, 30.0);
  ASSERT_EQ(back.bees.size(), 3u);
  EXPECT_EQ(back.bees[1].msgs_in, 9u);
}

// ---------------------------------------------------------------------------
// Placement strategies (pure decision logic)
// ---------------------------------------------------------------------------

ClusterView two_hive_view(std::uint64_t from_h0, std::uint64_t from_h1) {
  ClusterView view;
  view.n_hives = 2;
  view.hive_cells[0] = 10;
  view.hive_cells[1] = 10;
  BeeView bee;
  bee.bee = make_bee_id(0, 1);
  bee.hive = 0;
  bee.cells = 3;
  bee.msgs_in = from_h0 + from_h1;
  if (from_h0 > 0) bee.inbound_by_hive[0] = from_h0;
  if (from_h1 > 0) bee.inbound_by_hive[1] = from_h1;
  view.bees.push_back(bee);
  return view;
}

TEST(GreedyStrategy, MigratesWhenMajorityIsRemote) {
  GreedyFollowSources greedy;
  auto decisions = greedy.decide(two_hive_view(10, 90));
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].to, 1u);
}

TEST(GreedyStrategy, StaysWhenMajorityIsLocal) {
  GreedyFollowSources greedy;
  EXPECT_TRUE(greedy.decide(two_hive_view(90, 10)).empty());
}

TEST(GreedyStrategy, RespectsNoiseFloor) {
  GreedyFollowSources greedy(GreedyConfig{.min_messages = 100});
  EXPECT_TRUE(greedy.decide(two_hive_view(1, 5)).empty());
}

TEST(GreedyStrategy, MajorityFractionIsConfigurable) {
  GreedyFollowSources strict(GreedyConfig{.majority_fraction = 0.95});
  EXPECT_TRUE(strict.decide(two_hive_view(10, 90)).empty());
  GreedyFollowSources lax(GreedyConfig{.majority_fraction = 0.3});
  EXPECT_EQ(lax.decide(two_hive_view(40, 60)).size(), 1u);
}

TEST(GreedyStrategy, PinnedBeesNeverMove) {
  auto view = two_hive_view(0, 100);
  view.bees[0].pinned = true;
  GreedyFollowSources greedy;
  EXPECT_TRUE(greedy.decide(view).empty());
}

TEST(GreedyStrategy, CapacityBlocksMove) {
  auto view = two_hive_view(0, 100);
  view.hive_cells[1] = 99;
  GreedyFollowSources greedy(GreedyConfig{.hive_cell_capacity = 100});
  EXPECT_TRUE(greedy.decide(view).empty());  // 99 + 3 > 100
  GreedyFollowSources roomy(GreedyConfig{.hive_cell_capacity = 200});
  EXPECT_EQ(roomy.decide(view).size(), 1u);
}

TEST(GreedyStrategy, JointCapacityAcrossOneRound) {
  ClusterView view;
  view.n_hives = 2;
  view.hive_cells[0] = 0;
  view.hive_cells[1] = 0;
  for (int i = 0; i < 3; ++i) {
    BeeView bee;
    bee.bee = make_bee_id(0, static_cast<std::uint32_t>(i + 1));
    bee.hive = 0;
    bee.cells = 4;
    bee.msgs_in = 100;
    bee.inbound_by_hive[1] = 100;
    view.bees.push_back(bee);
  }
  // Capacity 10 fits two bees (8 cells), not three (12).
  GreedyFollowSources greedy(GreedyConfig{.hive_cell_capacity = 10});
  EXPECT_EQ(greedy.decide(view).size(), 2u);
}

ClusterView skewed_view(std::size_t n_hives, std::size_t bees_on_zero,
                        std::uint64_t msgs_each) {
  ClusterView view;
  view.n_hives = n_hives;
  for (HiveId h = 0; h < n_hives; ++h) view.hive_cells[h] = 0;
  for (std::size_t i = 0; i < bees_on_zero; ++i) {
    BeeView bee;
    bee.bee = make_bee_id(0, static_cast<std::uint32_t>(i + 1));
    bee.hive = 0;
    bee.cells = 1;
    bee.msgs_in = msgs_each;
    view.bees.push_back(bee);
  }
  return view;
}

TEST(LoadBalanceStrategyTest, ShedsLoadFromOverloadedHive) {
  LoadBalanceStrategy strategy;
  auto decisions = strategy.decide(skewed_view(4, 8, 100));
  ASSERT_FALSE(decisions.empty());
  for (const MigrationDecision& d : decisions) {
    EXPECT_NE(d.to, 0u);  // moves away from the hot hive
  }
  // Enough moves to bring hive 0 near the mean (2 of 8 bees stay ± 1).
  EXPECT_GE(decisions.size(), 5u);
  EXPECT_LE(decisions.size(), 7u);
}

TEST(LoadBalanceStrategyTest, BalancedClusterIsLeftAlone) {
  ClusterView view;
  view.n_hives = 3;
  for (HiveId h = 0; h < 3; ++h) {
    view.hive_cells[h] = 1;
    BeeView bee;
    bee.bee = make_bee_id(h, 1);
    bee.hive = h;
    bee.msgs_in = 100;
    view.bees.push_back(bee);
  }
  LoadBalanceStrategy strategy;
  EXPECT_TRUE(strategy.decide(view).empty());
}

TEST(LoadBalanceStrategyTest, PinnedAndQuietBeesStay) {
  auto view = skewed_view(2, 4, 100);
  for (BeeView& bee : view.bees) bee.pinned = true;
  LoadBalanceStrategy strategy;
  EXPECT_TRUE(strategy.decide(view).empty());

  auto quiet = skewed_view(2, 4, 2);  // below min_messages
  LoadBalanceStrategy strict(LoadBalanceConfig{.min_messages = 10});
  EXPECT_TRUE(strict.decide(quiet).empty());
}

TEST(LoadBalanceStrategyTest, PrefersSourceHiveOnTies) {
  auto view = skewed_view(3, 4, 100);
  // Bee 1 receives everything from hive 2: on a load tie 1-vs-2, pick 2.
  view.bees[0].inbound_by_hive[2] = 100;
  LoadBalanceStrategy strategy;
  auto decisions = strategy.decide(view);
  ASSERT_FALSE(decisions.empty());
  EXPECT_EQ(decisions[0].bee, view.bees[0].bee);
  EXPECT_EQ(decisions[0].to, 2u);
}

TEST(LoadBalanceStrategyTest, RespectsCapacity) {
  auto view = skewed_view(2, 6, 100);
  view.hive_cells[1] = 100;
  LoadBalanceStrategy full(LoadBalanceConfig{.hive_cell_capacity = 100});
  EXPECT_TRUE(full.decide(view).empty());
}

TEST(NoopStrategyTest, NeverDecides) {
  NoopStrategy noop;
  EXPECT_TRUE(noop.decide(two_hive_view(0, 1000)).empty());
}

TEST(RandomStrategyTest, MovesSomeBeesDeterministically) {
  ClusterView view;
  view.n_hives = 4;
  for (int i = 0; i < 100; ++i) {
    BeeView bee;
    bee.bee = make_bee_id(0, static_cast<std::uint32_t>(i + 1));
    bee.hive = 0;
    view.bees.push_back(bee);
  }
  RandomStrategy a(5, 0.5), b(5, 0.5);
  auto da = a.decide(view);
  auto db = b.decide(view);
  EXPECT_FALSE(da.empty());
  EXPECT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) EXPECT_EQ(da[i], db[i]);
}

// ---------------------------------------------------------------------------
// Collector app end-to-end: reports aggregate on one bee; the greedy
// optimizer issues migration orders that actually move bees.
// ---------------------------------------------------------------------------

class CollectorTest : public ::testing::Test {
 protected:
  AppSet apps_;
};

TEST_F(CollectorTest, ReportsAggregateOnSingleCollectorBee) {
  apps_.emplace<CounterApp>();
  apps_.emplace<CollectorApp>(std::make_shared<NoopStrategy>(), 3);

  ClusterConfig config;
  config.n_hives = 3;
  config.hive.metrics_period = kSecond;
  config.hive.timers_until = 4 * kSecond;
  SimCluster sim(config, apps_);
  sim.start();

  for (HiveId h = 0; h < 3; ++h) {
    sim.hive(h).inject(MessageEnvelope::make(
        Incr{"k" + std::to_string(h), 1}, 0, kNoBee, h, 0));
  }
  sim.run_until(3 * kSecond + kMillisecond);

  AppId collector = apps_.find_by_name("platform.collector")->id();
  auto records = sim.registry().live_bees();
  std::size_t n_collectors = 0;
  Bee* collector_bee = nullptr;
  for (const BeeRecord& rec : records) {
    if (rec.app != collector) continue;
    ++n_collectors;
    collector_bee = sim.hive(rec.hive).find_bee(rec.id);
  }
  EXPECT_EQ(n_collectors, 1u);
  ASSERT_NE(collector_bee, nullptr);

  ClusterView view =
      CollectorApp::view_from_store(collector_bee->store(), 3);
  EXPECT_EQ(view.n_hives, 3u);
  EXPECT_EQ(view.hive_cells.size(), 3u);  // every hive reported
  EXPECT_FALSE(view.bees.empty());
}

TEST_F(CollectorTest, CausationAnalyticsTrackEmissionRatios) {
  // CounterQuery -> CounterValue is 1:1; Incr emits nothing.
  apps_.emplace<CounterApp>();
  apps_.emplace<testing::SinkApp>();
  apps_.emplace<CollectorApp>(std::make_shared<NoopStrategy>(), 2);

  ClusterConfig config;
  config.n_hives = 2;
  config.hive.metrics_period = kSecond;
  config.hive.timers_until = 3 * kSecond;
  SimCluster sim(config, apps_);
  sim.start();
  for (int i = 0; i < 10; ++i) {
    sim.hive(0).inject(
        MessageEnvelope::make(Incr{"c", 1}, 0, kNoBee, 0, sim.now()));
    sim.hive(1).inject(MessageEnvelope::make(testing::CounterQuery{"c"}, 0,
                                             kNoBee, 1, sim.now()));
  }
  sim.run_until(3 * kSecond);
  sim.run_to_idle();

  AppId collector = apps_.find_by_name("platform.collector")->id();
  AppId counter = apps_.find_by_name("test.counter")->id();
  const StateStore* store = nullptr;
  for (const BeeRecord& rec : sim.registry().live_bees()) {
    if (rec.app == collector) {
      store = &sim.hive(rec.hive).find_bee(rec.id)->store();
    }
  }
  ASSERT_NE(store, nullptr);
  auto rows = CollectorApp::causation_from_store(*store);
  bool found = false;
  for (const auto& row : rows) {
    if (row.app == counter && row.in == msg_type_id<testing::CounterQuery>() &&
        row.out == msg_type_id<testing::CounterValue>()) {
      found = true;
      EXPECT_EQ(row.emitted, 10u);
      EXPECT_EQ(row.inputs, 10u);
      EXPECT_DOUBLE_EQ(row.ratio, 1.0);
    }
  }
  EXPECT_TRUE(found) << "CounterQuery -> CounterValue edge missing";
}

TEST_F(CollectorTest, GreedyOptimizerMovesBeeTowardItsTraffic) {
  // Pinned "source" app on hive 2 keeps sending to a movable counter bee
  // that starts on hive 0.
  struct SourceApp : App {
    SourceApp() : App("test.source", /*pinned=*/true) {
      every_foreach(kSecond / 2, "src",
                    [](AppContext& ctx, const MessageEnvelope&) {
                      for (int i = 0; i < 4; ++i) {
                        ctx.emit(Incr{"hot", 1});
                      }
                    });
      on<Incr>([](const Incr& m) {
        return m.key == "seed" ? CellSet::single("src", "cell")
                               : CellSet{};
      },
               [](AppContext& ctx, const Incr&) {
                 ctx.state().put_as("src", "cell", I64{1});
               });
    }
  };
  apps_.emplace<CounterApp>();
  apps_.emplace<SourceApp>();
  apps_.emplace<CollectorApp>(
      std::make_shared<GreedyFollowSources>(
          GreedyConfig{.majority_fraction = 0.5, .min_messages = 4}),
      3, CollectorConfig{.optimize_period = 2 * kSecond});

  ClusterConfig config;
  config.n_hives = 3;
  config.hive.metrics_period = kSecond;
  config.hive.timers_until = 12 * kSecond;
  SimCluster sim(config, apps_);
  sim.start();

  // Seed: the counter bee lands on hive 0; the source bee on hive 2.
  sim.hive(0).inject(
      MessageEnvelope::make(Incr{"hot", 1}, 0, kNoBee, 0, 0));
  sim.hive(2).inject(
      MessageEnvelope::make(Incr{"seed", 1}, 0, kNoBee, 2, 0));
  sim.run_until(12 * kSecond);
  sim.run_to_idle();

  AppId counter = apps_.find_by_name("test.counter")->id();
  for (const BeeRecord& rec : sim.registry().live_bees()) {
    if (rec.app != counter) continue;
    EXPECT_EQ(rec.hive, 2u)
        << "counter bee should have migrated next to its message source";
  }
}

}  // namespace
}  // namespace beehive
