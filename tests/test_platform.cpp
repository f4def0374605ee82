// End-to-end tests of the platform core on the deterministic simulator:
// routing, state consistency, collocation/merging, whole-dict
// centralization, transactional handlers, timers, and live migration.
#include <gtest/gtest.h>

#include "cluster/sim.h"
#include "instrument/collector.h"
#include "tests/test_helpers.h"

namespace beehive {
namespace {

using testing::CounterApp;
using testing::CounterQuery;
using testing::CounterValue;
using testing::I64;
using testing::Incr;
using testing::PairIncr;
using testing::Poison;
using testing::SinkApp;
using testing::SumQuery;

class PlatformTest : public ::testing::Test {
 protected:
  PlatformTest() {
    apps_.emplace<CounterApp>();
    apps_.emplace<SinkApp>();
  }

  SimCluster make_sim(std::size_t n_hives) {
    ClusterConfig config;
    config.n_hives = n_hives;
    config.hive.metrics_period = 0;  // no collector in these tests
    return SimCluster(config, apps_);
  }

  /// Injects a message at `hive` and runs the sim to quiescence.
  template <typename M>
  void send(SimCluster& sim, HiveId hive, M msg) {
    sim.hive(hive).inject(
        MessageEnvelope::make(std::move(msg), 0, kNoBee, hive, sim.now()));
    sim.run_to_idle();
  }

  /// Finds the single live bee owning `cell` for the counter app and
  /// returns (bee record, local Bee*).
  std::pair<BeeRecord, Bee*> find_owner(SimCluster& sim,
                                        const std::string& key) {
    AppId app = apps_.find_by_name("test.counter")->id();
    auto out = sim.registry().resolve_or_create(
        app, CellSet::single(std::string(CounterApp::kDict), key), 0, false,
        sim.now());
    const std::optional<BeeRecord> rec = sim.registry().find(out.bee);
    EXPECT_TRUE(rec.has_value());
    Bee* bee = sim.hive(rec->hive).find_bee(out.bee);
    return {*rec, bee};
  }

  std::int64_t counter_value(SimCluster& sim, const std::string& key) {
    auto [rec, bee] = find_owner(sim, key);
    if (bee == nullptr) return -1;
    auto v = bee->store().dict(CounterApp::kDict).get_as<I64>(key);
    return v ? v->v : -1;
  }

  Bee* sink_bee(SimCluster& sim) {
    AppId app = apps_.find_by_name("test.sink")->id();
    auto out = sim.registry().resolve_or_create(
        app, CellSet::whole_dict(std::string(SinkApp::kDict)), 0, false,
        sim.now());
    const std::optional<BeeRecord> rec = sim.registry().find(out.bee);
    return sim.hive(rec->hive).find_bee(out.bee);
  }

  AppSet apps_;
};

// ---------------------------------------------------------------------------
// Basic routing and state
// ---------------------------------------------------------------------------

TEST_F(PlatformTest, SingleHiveCounterAccumulates) {
  SimCluster sim = make_sim(1);
  sim.start();
  send(sim, 0, Incr{"a", 2});
  send(sim, 0, Incr{"a", 3});
  EXPECT_EQ(counter_value(sim, "a"), 5);
}

TEST_F(PlatformTest, BeeCreatedOnInjectingHive) {
  SimCluster sim = make_sim(4);
  sim.start();
  send(sim, 2, Incr{"x", 1});
  auto [rec, bee] = find_owner(sim, "x");
  EXPECT_EQ(rec.hive, 2u);
  ASSERT_NE(bee, nullptr);
  EXPECT_EQ(bee->window().msgs_in, 1u);
}

TEST_F(PlatformTest, SameKeyFromDifferentHivesReachesSameBee) {
  SimCluster sim = make_sim(4);
  sim.start();
  for (HiveId h = 0; h < 4; ++h) send(sim, h, Incr{"shared", 1});
  EXPECT_EQ(counter_value(sim, "shared"), 4);
  // Exactly one bee owns the cell cluster-wide.
  int owners = 0;
  for (HiveId h = 0; h < 4; ++h) {
    for (Bee* bee : sim.hive(h).local_bees()) {
      if (bee->store().find_dict(CounterApp::kDict) != nullptr) ++owners;
    }
  }
  EXPECT_EQ(owners, 1);
}

TEST_F(PlatformTest, RemoteDeliveryIsMetered) {
  SimCluster sim = make_sim(2);
  sim.start();
  send(sim, 0, Incr{"k", 1});     // bee lands on hive 0
  std::uint64_t before = sim.meter().matrix_bytes(1, 0);
  send(sim, 1, Incr{"k", 1});     // must cross 1 -> 0
  EXPECT_GT(sim.meter().matrix_bytes(1, 0), before);
  EXPECT_EQ(counter_value(sim, "k"), 2);
}

TEST_F(PlatformTest, DifferentKeysSpreadOverInjectingHives) {
  SimCluster sim = make_sim(3);
  sim.start();
  send(sim, 0, Incr{"h0", 1});
  send(sim, 1, Incr{"h1", 1});
  send(sim, 2, Incr{"h2", 1});
  EXPECT_NE(sim.hive(0).local_bees().size(), 0u);
  EXPECT_NE(sim.hive(1).local_bees().size(), 0u);
  EXPECT_NE(sim.hive(2).local_bees().size(), 0u);
}

TEST_F(PlatformTest, EmittedMessagesRouteToOtherApps) {
  SimCluster sim = make_sim(2);
  sim.start();
  send(sim, 0, Incr{"q", 7});
  send(sim, 1, CounterQuery{"q"});  // counter bee emits CounterValue
  Bee* sink = sink_bee(sim);
  ASSERT_NE(sink, nullptr);
  auto last = sink->store().dict(SinkApp::kDict).get_as<I64>("last:q");
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->v, 7);
}

// ---------------------------------------------------------------------------
// Collocation / merging (paper §2's K1 ∩ K2 ≠ ∅ rule)
// ---------------------------------------------------------------------------

TEST_F(PlatformTest, PairMessageMergesBees) {
  SimCluster sim = make_sim(4);
  sim.start();
  send(sim, 0, Incr{"a", 10});
  send(sim, 1, Incr{"b", 20});
  EXPECT_EQ(sim.registry().live_bee_count(), 2u);
  send(sim, 2, PairIncr{"a", "b"});
  EXPECT_EQ(sim.registry().live_bee_count(), 1u);
  // State survived the merge and the pair handler ran once on both keys.
  EXPECT_EQ(counter_value(sim, "a"), 11);
  EXPECT_EQ(counter_value(sim, "b"), 21);
  // And both keys now live on the same bee.
  auto [rec_a, bee_a] = find_owner(sim, "a");
  auto [rec_b, bee_b] = find_owner(sim, "b");
  EXPECT_EQ(rec_a.id, rec_b.id);
}

TEST_F(PlatformTest, ChainOfMergesCollapsesTransitively) {
  SimCluster sim = make_sim(4);
  sim.start();
  for (int i = 0; i < 4; ++i) {
    send(sim, static_cast<HiveId>(i), Incr{"k" + std::to_string(i), 1});
  }
  EXPECT_EQ(sim.registry().live_bee_count(), 4u);
  send(sim, 0, PairIncr{"k0", "k1"});
  send(sim, 1, PairIncr{"k1", "k2"});
  send(sim, 2, PairIncr{"k2", "k3"});
  EXPECT_EQ(sim.registry().live_bee_count(), 1u);
  EXPECT_EQ(counter_value(sim, "k0"), 2);  // 1 + pair(k0,k1)
  EXPECT_EQ(counter_value(sim, "k1"), 3);  // 1 + two pairs
  EXPECT_EQ(counter_value(sim, "k2"), 3);
  EXPECT_EQ(counter_value(sim, "k3"), 2);
}

TEST_F(PlatformTest, WholeDictQueryCentralizesAndSums) {
  SimCluster sim = make_sim(4);
  sim.start();
  for (int i = 0; i < 8; ++i) {
    send(sim, static_cast<HiveId>(i % 4), Incr{"c" + std::to_string(i), i});
  }
  EXPECT_EQ(sim.registry().live_bee_count(), 8u);
  send(sim, 3, SumQuery{1});
  // All counter cells merged onto one bee (plus the sink's).
  AppId counter_app = apps_.find_by_name("test.counter")->id();
  std::size_t counter_bees = 0;
  for (const BeeRecord& rec : sim.registry().live_bees()) {
    if (rec.app == counter_app) ++counter_bees;
  }
  EXPECT_EQ(counter_bees, 1u);
  // The sum observed every key: 0+1+...+7 = 28.
  Bee* sink = sink_bee(sim);
  ASSERT_NE(sink, nullptr);
  auto sum = sink->store().dict(SinkApp::kDict).get_as<I64>("last:*sum*");
  ASSERT_TRUE(sum.has_value());
  EXPECT_EQ(sum->v, 28);
}

TEST_F(PlatformTest, NewKeysAfterCentralizationJoinTheGlobalBee) {
  SimCluster sim = make_sim(4);
  sim.start();
  send(sim, 0, SumQuery{1});  // centralizes dict "cnt" from the start
  send(sim, 2, Incr{"late", 5});
  EXPECT_EQ(counter_value(sim, "late"), 5);
  AppId counter_app = apps_.find_by_name("test.counter")->id();
  std::size_t counter_bees = 0;
  for (const BeeRecord& rec : sim.registry().live_bees()) {
    if (rec.app == counter_app) ++counter_bees;
  }
  EXPECT_EQ(counter_bees, 1u);
}

TEST_F(PlatformTest, OutOfOrderMergeTransfersDoNotUnblockEarly) {
  // Regression for the transfer-fence protocol: a merge decided *remotely*
  // (its payload delayed by wire latency) followed by a merge decided
  // *locally* (payload applied instantly). The locally-applied transfer
  // must not satisfy the fence of the remote one — the winner has to stay
  // blocked until the remote loser's state lands, or increments processed
  // in between are overwritten by the late snapshot.
  SimCluster sim = make_sim(2);
  sim.start();
  send(sim, 1, Incr{"a", 1});  // bee A on hive 1
  send(sim, 1, Incr{"b", 5});  // bee B on hive 1

  // Remote resolver (hive 0) merges {a, b}: MergeCmd + payload need a wire
  // round trip. Inject WITHOUT draining so everything below races it.
  sim.hive(0).inject(
      MessageEnvelope::make(PairIncr{"a", "b"}, 0, kNoBee, 0, sim.now()));

  // While that merge is in flight: more increments to "b" (the moving
  // cell), plus a locally-decided merge {a, c} whose payload applies
  // instantly on hive 1.
  sim.hive(1).inject(
      MessageEnvelope::make(Incr{"b", 1}, 0, kNoBee, 1, sim.now()));
  sim.hive(1).inject(
      MessageEnvelope::make(Incr{"c", 100}, 0, kNoBee, 1, sim.now()));
  sim.hive(1).inject(
      MessageEnvelope::make(PairIncr{"a", "c"}, 0, kNoBee, 1, sim.now()));
  sim.hive(1).inject(
      MessageEnvelope::make(Incr{"b", 1}, 0, kNoBee, 1, sim.now()));
  sim.run_to_idle();

  EXPECT_EQ(counter_value(sim, "a"), 3);    // 1 + both pairs
  EXPECT_EQ(counter_value(sim, "b"), 8);    // 5 + pair + 1 + 1
  EXPECT_EQ(counter_value(sim, "c"), 101);  // 100 + pair
  EXPECT_EQ(sim.registry().live_bee_count(), 1u);
}

// ---------------------------------------------------------------------------
// Transactional handlers
// ---------------------------------------------------------------------------

TEST_F(PlatformTest, ThrowingHandlerRollsBackStateAndEmissions) {
  SimCluster sim = make_sim(2);
  sim.start();
  send(sim, 0, Incr{"p", 1});
  Bee* sink_before = sink_bee(sim);
  std::uint64_t sink_msgs =
      sink_before == nullptr ? 0 : sink_before->window().msgs_in;

  send(sim, 0, Poison{"p"});  // writes 9999, emits, then throws

  EXPECT_EQ(counter_value(sim, "p"), 1);  // write rolled back
  Bee* sink_after = sink_bee(sim);
  std::uint64_t sink_msgs_after =
      sink_after == nullptr ? 0 : sink_after->window().msgs_in;
  EXPECT_EQ(sink_msgs_after, sink_msgs);  // emission discarded
  auto [rec, bee] = find_owner(sim, "p");
  ASSERT_NE(bee, nullptr);
  EXPECT_EQ(sim.hive(rec.hive).counters().handler_failures, 1u);
}

TEST_F(PlatformTest, FailedHandlerDoesNotPoisonSubsequentMessages) {
  SimCluster sim = make_sim(1);
  sim.start();
  send(sim, 0, Poison{"z"});
  send(sim, 0, Incr{"z", 4});
  EXPECT_EQ(counter_value(sim, "z"), 4);
}

// ---------------------------------------------------------------------------
// Migration
// ---------------------------------------------------------------------------

TEST_F(PlatformTest, ManualMigrationMovesStateAndOwnership) {
  SimCluster sim = make_sim(3);
  sim.start();
  send(sim, 0, Incr{"m", 42});
  auto [rec, bee] = find_owner(sim, "m");
  ASSERT_EQ(rec.hive, 0u);

  sim.hive(0).request_migration(rec.id, 2);
  sim.run_to_idle();

  EXPECT_EQ(sim.registry().hive_of(rec.id), 2u);
  EXPECT_EQ(sim.hive(0).find_bee(rec.id), nullptr);
  Bee* moved = sim.hive(2).find_bee(rec.id);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->store().dict(CounterApp::kDict).get_as<I64>("m")->v, 42);
  EXPECT_EQ(sim.hive(2).counters().migrations_in, 1u);
  EXPECT_EQ(sim.hive(0).counters().migrations_out, 1u);
  // And it still works.
  send(sim, 1, Incr{"m", 1});
  EXPECT_EQ(counter_value(sim, "m"), 43);
}

TEST_F(PlatformTest, MessagesDuringMigrationAreNotLost) {
  SimCluster sim = make_sim(3);
  sim.start();
  send(sim, 0, Incr{"w", 1});
  auto [rec, bee] = find_owner(sim, "w");

  // Start the migration and inject while the transfer is in flight.
  sim.hive(0).request_migration(rec.id, 2);
  for (int i = 0; i < 5; ++i) {
    sim.hive(1).inject(
        MessageEnvelope::make(Incr{"w", 1}, 0, kNoBee, 1, sim.now()));
  }
  sim.run_to_idle();
  EXPECT_EQ(counter_value(sim, "w"), 6);
}

TEST_F(PlatformTest, MigrationOrderForNonLocalBeeIsForwarded) {
  SimCluster sim = make_sim(3);
  sim.start();
  send(sim, 1, Incr{"f", 1});
  auto [rec, bee] = find_owner(sim, "f");
  ASSERT_EQ(rec.hive, 1u);
  // Ask hive 0 (wrong hive) to migrate it; the order must be forwarded.
  sim.hive(0).request_migration(rec.id, 2);
  sim.run_to_idle();
  EXPECT_EQ(sim.registry().hive_of(rec.id), 2u);
  EXPECT_EQ(counter_value(sim, "f"), 1);
}

TEST_F(PlatformTest, MigrationToCurrentHiveIsNoop) {
  SimCluster sim = make_sim(2);
  sim.start();
  send(sim, 0, Incr{"n", 1});
  auto [rec, bee] = find_owner(sim, "n");
  sim.hive(0).request_migration(rec.id, 0);
  sim.run_to_idle();
  EXPECT_EQ(sim.registry().hive_of(rec.id), 0u);
  EXPECT_EQ(sim.hive(0).counters().migrations_out, 0u);
}

TEST_F(PlatformTest, StaleSenderCacheIsHealedByForwarding) {
  SimCluster sim = make_sim(3);
  sim.start();
  send(sim, 0, Incr{"s", 1});   // bee on hive 0
  send(sim, 1, Incr{"s", 1});   // hive 1 caches the location
  auto [rec, bee] = find_owner(sim, "s");
  sim.hive(0).request_migration(rec.id, 2);
  sim.run_to_idle();
  // Hive 1's cache was invalidated via the registry push; but even a
  // stale delivery would be forwarded. Either way the count is right.
  send(sim, 1, Incr{"s", 1});
  EXPECT_EQ(counter_value(sim, "s"), 3);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST_F(PlatformTest, IdenticalRunsProduceIdenticalTraffic) {
  auto run = [this]() {
    SimCluster sim = make_sim(4);
    sim.start();
    for (int i = 0; i < 20; ++i) {
      send(sim, static_cast<HiveId>(i % 4),
           Incr{"k" + std::to_string(i % 7), 1});
    }
    send(sim, 0, SumQuery{9});
    return std::make_pair(sim.meter().total_bytes(),
                          sim.meter().total_messages());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace beehive
