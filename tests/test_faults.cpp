// Lossy-network fault injection and the reliable control-channel
// transport: FaultPlan semantics, effectively-once delivery under drop /
// duplication / jitter, registry RPC retry + backoff, migration
// timeout-retry-abort, and a convergence soak with real control apps.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <utility>

#include "apps/learning_switch.h"
#include "apps/messages.h"
#include "apps/routing.h"
#include "cluster/sim.h"
#include "instrument/collector.h"
#include "placement/strategy.h"
#include "tests/test_helpers.h"

namespace beehive {
namespace {

using testing::CounterApp;
using testing::I64;
using testing::Incr;

// ---------------------------------------------------------------------------
// FaultPlan unit tests
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, InactiveByDefaultAndActivatedByConfig) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  plan.partition(1, 2);
  EXPECT_TRUE(plan.active());
  plan.heal(1, 2);
  EXPECT_FALSE(plan.active());
  plan.set_default_link({.drop = 0.1});
  EXPECT_TRUE(plan.active());
}

TEST(FaultPlanTest, PartitionBlocksBothDirectionsUntilHealed) {
  FaultPlan plan;
  Xoshiro256 rng(1);
  plan.partition(1, 2);
  EXPECT_TRUE(plan.partitioned(1, 2));
  EXPECT_TRUE(plan.partitioned(2, 1));
  EXPECT_EQ(plan.partitions_active(), 1u);
  EXPECT_EQ(plan.decide(1, 2, 0, rng).copies, 0);
  EXPECT_EQ(plan.decide(2, 1, 0, rng).copies, 0);
  EXPECT_EQ(plan.decide(1, 3, 0, rng).copies, 1);  // other links unaffected
  EXPECT_EQ(plan.stats().frames_partitioned, 2u);
  plan.heal(1, 2);
  EXPECT_EQ(plan.decide(1, 2, 0, rng).copies, 1);
  EXPECT_EQ(plan.partitions_active(), 0u);
}

TEST(FaultPlanTest, DeterministicFatesAndStats) {
  FaultPlan plan;
  Xoshiro256 rng(1);
  plan.set_link(0, 1, {.drop = 1.0});
  plan.set_link(1, 0, {.duplicate = 1.0});
  plan.set_link(2, 3, {.jitter = 1.0, .jitter_max = 5 * kMillisecond});
  plan.set_link(3, 2, {.reorder = 1.0});

  EXPECT_EQ(plan.decide(0, 1, 100, rng).copies, 0);
  FaultPlan::Delivery dup = plan.decide(1, 0, 100, rng);
  EXPECT_EQ(dup.copies, 2);
  FaultPlan::Delivery jit = plan.decide(2, 3, 100, rng);
  EXPECT_EQ(jit.copies, 1);
  EXPECT_LT(jit.extra_delay[0], 5 * kMillisecond);
  FaultPlan::Delivery reord = plan.decide(3, 2, 100, rng);
  EXPECT_EQ(reord.extra_delay[0], 100);  // exactly one base latency

  EXPECT_EQ(plan.stats().frames_dropped, 1u);
  EXPECT_EQ(plan.stats().frames_duplicated, 1u);
  EXPECT_GE(plan.stats().frames_delayed, 1u);

  // Identical plan + seed replays the identical fate sequence.
  FaultPlan plan2;
  Xoshiro256 rng2(1);
  plan2.set_link(0, 1, {.drop = 1.0});
  plan2.set_link(1, 0, {.duplicate = 1.0});
  plan2.set_link(2, 3, {.jitter = 1.0, .jitter_max = 5 * kMillisecond});
  plan2.set_link(3, 2, {.reorder = 1.0});
  EXPECT_EQ(plan2.decide(0, 1, 100, rng2).copies, 0);
  EXPECT_EQ(plan2.decide(1, 0, 100, rng2).copies, 2);
  EXPECT_EQ(plan2.decide(2, 3, 100, rng2).extra_delay[0], jit.extra_delay[0]);
}

TEST(FaultPlanTest, RpcLossFollowsPartitionAndDropRate) {
  FaultPlan plan;
  Xoshiro256 rng(1);
  EXPECT_FALSE(plan.rpc_lost(1, 0, rng));  // clean plan never loses
  plan.set_link(1, 0, {.drop = 1.0});
  EXPECT_TRUE(plan.rpc_lost(1, 0, rng));
  EXPECT_FALSE(plan.rpc_lost(0, 0, rng));  // local calls cannot be lost
  plan.partition(2, 0);
  EXPECT_TRUE(plan.rpc_lost(2, 0, rng));
  EXPECT_EQ(plan.stats().rpcs_lost, 2u);
}

// ---------------------------------------------------------------------------
// ChannelMeter robustness
// ---------------------------------------------------------------------------

TEST(ChannelMeterFaultTest, OutOfRangeSamplesAreDroppedNotCrashed) {
  ChannelMeter meter(2);
  meter.record(0, 1, 100, 0);
  meter.record(7, 1, 100, 0);  // bogus sender
  meter.record(0, 9, 100, 0);  // bogus receiver
  EXPECT_EQ(meter.total_bytes(), 100u);
  EXPECT_EQ(meter.total_messages(), 1u);
}

// ---------------------------------------------------------------------------
// Reliable transport over a hostile channel
// ---------------------------------------------------------------------------

class FaultSimTest : public ::testing::Test {
 protected:
  FaultSimTest() { apps_.emplace<CounterApp>(); }

  SimCluster make_sim(std::size_t n_hives, bool transport = true) {
    ClusterConfig config;
    config.n_hives = n_hives;
    config.hive.metrics_period = 0;
    config.hive.transport.enabled = transport;
    return SimCluster(config, apps_);
  }

  template <typename M>
  void inject(SimCluster& sim, HiveId hive, M msg) {
    sim.hive(hive).inject(
        MessageEnvelope::make(std::move(msg), 0, kNoBee, hive, sim.now()));
  }

  template <typename M>
  void send(SimCluster& sim, HiveId hive, M msg) {
    inject(sim, hive, std::move(msg));
    sim.run_to_idle();
  }

  std::int64_t counter_value(SimCluster& sim, const std::string& key) {
    AppId app = apps_.find_by_name("test.counter")->id();
    for (const BeeRecord& rec : sim.registry().live_bees()) {
      if (rec.app != app) continue;
      Bee* bee = sim.hive(rec.hive).find_bee(rec.id);
      if (bee == nullptr) continue;
      if (auto v = bee->store().dict(CounterApp::kDict).get_as<I64>(key)) {
        return v->v;
      }
    }
    return -1;
  }

  AppSet apps_;
};

TEST_F(FaultSimTest, EffectivelyOnceUnderHeavyDropAndDuplication) {
  SimCluster sim = make_sim(2);
  sim.start();
  // Home five counter bees on hive 0 and warm hive 1's registry cache over
  // a clean channel, so the lossy phase below exercises the transport (the
  // raw-datagram registry RPCs are covered separately).
  for (int k = 0; k < 5; ++k) {
    send(sim, 0, Incr{"k" + std::to_string(k), 1});
    send(sim, 1, Incr{"k" + std::to_string(k), 1});
  }
  sim.faults().set_default_link({.drop = 0.3,
                                 .duplicate = 0.25,
                                 .jitter = 0.5,
                                 .jitter_max = 2 * kMillisecond});
  // 40 remote increments from hive 1, many in flight simultaneously so the
  // channel has traffic to scramble.
  for (int i = 0; i < 40; ++i) {
    inject(sim, 1, Incr{"k" + std::to_string(i % 5), 1});
    sim.run_for(100 * kMicrosecond);
  }
  sim.run_to_idle();

  // Exact counts despite ~30% loss and ~25% duplication: the transport
  // retransmitted every loss and deduplicated every extra copy.
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(counter_value(sim, "k" + std::to_string(k)), 10)
        << "key k" << k;
  }
  const TransportCounters& t1 = sim.hive(1).transport_counters();
  const TransportCounters& t0 = sim.hive(0).transport_counters();
  EXPECT_GT(t1.retransmits, 0u);
  EXPECT_GT(t0.dup_frames_dropped + t1.dup_frames_dropped, 0u);
  EXPECT_GT(sim.faults().stats().frames_dropped, 0u);
  EXPECT_GT(sim.faults().stats().frames_duplicated, 0u);
  EXPECT_EQ(t0.frames_abandoned + t1.frames_abandoned, 0u);
}

TEST_F(FaultSimTest, TransportRestoresOrderAcrossForcedReordering) {
  SimCluster sim = make_sim(2);
  sim.start();
  send(sim, 0, Incr{"x", 1});
  send(sim, 1, Incr{"x", 1});  // warm hive 1's registry cache
  sim.faults().set_link(1, 0, {.reorder = 0.5});
  for (int i = 0; i < 30; ++i) {
    inject(sim, 1, Incr{"x", 1});
    sim.run_for(50 * kMicrosecond);
  }
  sim.run_to_idle();
  EXPECT_EQ(counter_value(sim, "x"), 32);
  EXPECT_GT(sim.hive(0).transport_counters().reorder_buffered, 0u);
  EXPECT_EQ(sim.faults().stats().frames_dropped, 0u);
}

TEST_F(FaultSimTest, PartitionHealsAndTrafficResumes) {
  SimCluster sim = make_sim(3);
  sim.start();
  send(sim, 1, Incr{"p", 5});
  sim.faults().partition(1, 2);
  // Frames 2 -> 1 are blackholed; the transport buffers and retransmits.
  inject(sim, 2, Incr{"p", 1});
  sim.run_for(20 * kMillisecond);
  EXPECT_EQ(counter_value(sim, "p"), 5);  // not yet delivered
  sim.faults().heal(1, 2);
  sim.run_to_idle();
  EXPECT_EQ(counter_value(sim, "p"), 6);  // retransmission got through
  EXPECT_GT(sim.hive(2).transport_counters().retransmits, 0u);
  EXPECT_EQ(sim.hive(2).transport_counters().frames_abandoned, 0u);
}

// ---------------------------------------------------------------------------
// Registry RPC retry and backoff
// ---------------------------------------------------------------------------

TEST_F(FaultSimTest, RegistryRpcRetriesThenFailsAndBacksOff) {
  SimCluster sim = make_sim(2, /*transport=*/false);
  sim.start();
  sim.faults().set_link(1, 0, {.drop = 1.0});

  // Every attempt of the miss RPC is lost: the lookup fails, the message
  // is dropped, and the wasted attempts are billed to the channel.
  send(sim, 1, Incr{"r", 1});
  EXPECT_EQ(counter_value(sim, "r"), -1);
  EXPECT_EQ(sim.hive(1).counters().registry_failures, 1u);
  EXPECT_EQ(
      sim.faults().stats().rpcs_lost,
      static_cast<std::uint64_t>(RegistryService::Client::kMaxRpcAttempts));
  EXPECT_GE(sim.hive(1).registry_client().rpc_retries(),
            static_cast<std::uint64_t>(
                RegistryService::Client::kMaxRpcAttempts - 1));
  EXPECT_GE(sim.hive(1).registry_client().rpc_failures(), 1u);
  EXPECT_GT(sim.meter().matrix_bytes(1, 0), 0u);

  // Inside the backoff window lookups fail fast: no further RPC attempts
  // hit the wire.
  send(sim, 1, Incr{"r", 1});
  EXPECT_EQ(
      sim.faults().stats().rpcs_lost,
      static_cast<std::uint64_t>(RegistryService::Client::kMaxRpcAttempts));
  EXPECT_EQ(sim.hive(1).counters().registry_failures, 2u);

  // Heal the link and let the backoff expire: service resumes.
  sim.faults().set_link(1, 0, {});
  sim.run_for(10 * kMillisecond);
  send(sim, 1, Incr{"r", 1});
  EXPECT_EQ(counter_value(sim, "r"), 1);
  EXPECT_EQ(sim.hive(1).counters().registry_failures, 2u);
}

TEST_F(FaultSimTest, RegistryRpcRetriesAbsorbModerateLoss) {
  SimCluster sim = make_sim(2);  // transport on: data frames are reliable
  sim.start();
  sim.faults().set_link(1, 0, {.drop = 0.5});
  for (int i = 0; i < 10; ++i) {
    send(sim, 1, Incr{"m" + std::to_string(i), 1});
    sim.run_for(5 * kMillisecond);  // clear any backoff window
  }
  sim.run_to_idle();
  // Each new key needs one registry lookup from hive 1; an attempt dies
  // with p=0.5 but a whole lookup only with p=0.5^4. A message either
  // arrived intact (the transport absorbs the data-frame loss) or was
  // dropped on a failed lookup — and every failure is accounted for.
  int delivered = 0;
  for (int i = 0; i < 10; ++i) {
    std::int64_t v = counter_value(sim, "m" + std::to_string(i));
    EXPECT_TRUE(v == 1 || v == -1) << "key m" << i << " = " << v;
    if (v == 1) ++delivered;
  }
  EXPECT_GT(delivered, 0);
  EXPECT_EQ(static_cast<std::uint64_t>(10 - delivered),
            sim.hive(1).counters().registry_failures);
  EXPECT_GT(sim.hive(1).registry_client().rpc_retries(), 0u);
}

// ---------------------------------------------------------------------------
// Migration under loss: retry, then complete or abort with the bee intact
// ---------------------------------------------------------------------------

TEST_F(FaultSimTest, MigrationUnderLossCompletesOrAbortsWithBeeIntact) {
  SimCluster sim = make_sim(3);
  sim.start();
  send(sim, 1, Incr{"m", 5});
  BeeId bee = sim.registry().live_bees()[0].id;
  ASSERT_EQ(sim.registry().hive_of(bee), 1u);

  sim.faults().set_default_link({.drop = 0.2});
  sim.hive(1).request_migration(bee, 2);
  sim.run_to_idle();

  // Exactly one outcome: the bee lives at its origin (aborted) or at the
  // target (completed) — never both, never neither.
  auto home = sim.registry().hive_of(bee);
  ASSERT_TRUE(home.has_value());
  ASSERT_TRUE(*home == 1u || *home == 2u) << "bee on hive " << *home;
  EXPECT_NE(sim.hive(*home).find_bee(bee), nullptr);
  EXPECT_EQ(sim.hive(*home == 1u ? 2u : 1u).find_bee(bee), nullptr);
  const Hive::Counters& c = sim.hive(1).counters();
  EXPECT_EQ(c.migrations_out + c.migration_aborts, 1u);

  // State survived, and the bee still processes messages.
  sim.faults().set_default_link({});
  send(sim, 0, Incr{"m", 1});
  EXPECT_EQ(counter_value(sim, "m"), 6);
}

TEST_F(FaultSimTest, MigrationAcrossPartitionAbortsCleanly) {
  SimCluster sim = make_sim(3);
  sim.start();
  send(sim, 1, Incr{"p", 7});
  BeeId bee = sim.registry().live_bees()[0].id;

  sim.faults().partition(1, 2);
  sim.hive(1).request_migration(bee, 2);
  sim.run_to_idle();

  // All attempts timed out: the migration aborted, the registry was never
  // re-pointed, and the bee thawed at its origin.
  EXPECT_EQ(sim.registry().hive_of(bee), 1u);
  Bee* local = sim.hive(1).find_bee(bee);
  ASSERT_NE(local, nullptr);
  EXPECT_FALSE(local->migrating());
  const Hive::Counters& c = sim.hive(1).counters();
  EXPECT_EQ(c.migration_aborts, 1u);
  EXPECT_EQ(c.migrations_out, 0u);
  EXPECT_GE(c.migration_retries, 1u);
  // The transport eventually gave up on the partitioned link.
  EXPECT_GT(sim.hive(1).transport_counters().frames_abandoned, 0u);

  sim.faults().heal(1, 2);
  send(sim, 2, Incr{"p", 1});
  EXPECT_EQ(counter_value(sim, "p"), 8);
}

// ---------------------------------------------------------------------------
// Convergence soak: real control apps over a lossy channel end in exactly
// the state a clean channel produces.
// ---------------------------------------------------------------------------

using MacMap = std::map<std::string, std::map<std::uint64_t, std::uint16_t>>;
using RibMap = std::map<std::string,
                        std::map<std::pair<std::uint32_t, int>,
                                 std::pair<std::uint32_t, std::uint32_t>>>;

MacMap harvest_macs(SimCluster& sim, AppId app) {
  MacMap out;
  for (const BeeRecord& rec : sim.registry().live_bees()) {
    if (rec.app != app) continue;
    Bee* bee = sim.hive(rec.hive).find_bee(rec.id);
    if (bee == nullptr) continue;
    if (const Dict* d = bee->store().find_dict(LearningSwitchApp::kDict)) {
      d->for_each([&out](const std::string& key, const Bytes& value) {
        MacTable table = decode_from_bytes<MacTable>(value);
        auto& macs = out[key];
        for (const MacTable::Entry& e : table.entries) {
          macs[e.mac] = e.port;
        }
      });
    }
  }
  return out;
}

RibMap harvest_rib(SimCluster& sim, AppId app) {
  RibMap out;
  for (const BeeRecord& rec : sim.registry().live_bees()) {
    if (rec.app != app) continue;
    Bee* bee = sim.hive(rec.hive).find_bee(rec.id);
    if (bee == nullptr) continue;
    if (const Dict* d = bee->store().find_dict(RoutingApp::kDict)) {
      d->for_each([&out](const std::string& key, const Bytes& value) {
        PrefixTable table = decode_from_bytes<PrefixTable>(value);
        auto& routes = out[key];
        for (const RouteAnnounce& r : table.routes) {
          routes[{r.prefix, r.mask_len}] = {r.next_hop, r.metric};
        }
      });
    }
  }
  return out;
}

class FaultSoakTest : public ::testing::Test {
 protected:
  FaultSoakTest() {
    apps_.emplace<LearningSwitchApp>();
    apps_.emplace<RoutingApp>();
  }

  static PacketIn packet(int i) {
    // One canonical port per mac, so the final mac tables are independent
    // of the order the hives' packets interleave in.
    const std::uint64_t src = 100 + static_cast<std::uint64_t>(i % 16);
    return PacketIn{static_cast<SwitchId>(i % 8), src,
                    100 + static_cast<std::uint64_t>((i + 5) % 16),
                    static_cast<std::uint16_t>(1 + src % 4)};
  }

  static RouteAnnounce route(int i) {
    // Every announcement carries a distinct (prefix, mask): upsert order
    // cannot change the converged RIB.
    return RouteAnnounce{
        static_cast<std::uint32_t>((10 + i % 5) << 24 | (i << 8)), 24,
        static_cast<std::uint32_t>(0x0a000001 + i),
        static_cast<std::uint32_t>(1 + i % 3)};
  }

  /// Drives packet-ins + announcements from every hive in two bursts with
  /// a pause between them; `mid` runs at the pause (the faulty variant
  /// heals its partition there).
  void drive(SimCluster& sim, const std::function<void()>& mid = {}) {
    for (int i = 0; i < 60; ++i) {
      HiveId at = static_cast<HiveId>(i % sim.n_hives());
      sim.hive(at).inject(
          MessageEnvelope::make(packet(i), 0, kNoBee, at, sim.now()));
      sim.hive(at).inject(
          MessageEnvelope::make(route(i), 0, kNoBee, at, sim.now()));
      sim.run_for(200 * kMicrosecond);
    }
    if (mid) mid();
    sim.run_for(20 * kMillisecond);
    for (int i = 60; i < 120; ++i) {
      HiveId at = static_cast<HiveId>(i % sim.n_hives());
      sim.hive(at).inject(
          MessageEnvelope::make(packet(i), 0, kNoBee, at, sim.now()));
      sim.hive(at).inject(
          MessageEnvelope::make(route(i), 0, kNoBee, at, sim.now()));
      sim.run_for(200 * kMicrosecond);
    }
    sim.run_to_idle();
  }

  SimCluster make_sim() {
    ClusterConfig config;
    config.n_hives = 4;
    config.hive.metrics_period = 0;
    config.hive.transport.enabled = true;
    return SimCluster(config, apps_);
  }

  AppSet apps_;
};

TEST_F(FaultSoakTest, LossyChannelConvergesToCleanFinalState) {
  AppId lsw = apps_.find_by_name("learning_switch")->id();
  AppId rt = apps_.find_by_name("routing")->id();

  SimCluster clean = make_sim();
  clean.start();
  drive(clean);
  MacMap clean_macs = harvest_macs(clean, lsw);
  RibMap clean_rib = harvest_rib(clean, rt);
  ASSERT_FALSE(clean_macs.empty());
  ASSERT_FALSE(clean_rib.empty());

  SimCluster faulty = make_sim();
  faulty.start();
  faulty.faults().set_default_link({.drop = 0.05, .duplicate = 0.02});
  // Plus a partition episode between two non-registry hives during the
  // first burst, healed well within the transport's retransmission budget.
  faulty.faults().partition(1, 2);
  drive(faulty, [&faulty]() { faulty.faults().heal(1, 2); });

  // The network really was hostile...
  EXPECT_GT(faulty.faults().stats().frames_dropped, 0u);
  EXPECT_GT(faulty.faults().stats().frames_duplicated, 0u);
  EXPECT_GT(faulty.faults().stats().frames_partitioned, 0u);
  std::uint64_t retransmits = 0;
  for (std::size_t h = 0; h < faulty.n_hives(); ++h) {
    const TransportCounters& t =
        faulty.hive(static_cast<HiveId>(h)).transport_counters();
    retransmits += t.retransmits;
    EXPECT_EQ(t.frames_abandoned, 0u) << "hive " << h;
  }
  EXPECT_GT(retransmits, 0u);

  // ...and yet the applications converged to the identical final state.
  EXPECT_EQ(harvest_macs(faulty, lsw), clean_macs);
  EXPECT_EQ(harvest_rib(faulty, rt), clean_rib);
}

// ---------------------------------------------------------------------------
// Metrics pipeline: transport health reaches the collector
// ---------------------------------------------------------------------------

TEST(FaultMetricsTest, TransportCountersFlowToCollector) {
  AppSet apps;
  apps.emplace<CounterApp>();
  apps.emplace<CollectorApp>(std::make_shared<NoopStrategy>(), 2);
  ClusterConfig config;
  config.n_hives = 2;
  config.hive.metrics_period = 500 * kMillisecond;
  config.hive.timers_until = 3 * kSecond;
  config.hive.transport.enabled = true;
  SimCluster sim(config, apps);
  sim.start();
  sim.faults().set_default_link({.drop = 0.2});
  for (int i = 0; i < 20; ++i) {
    HiveId at = static_cast<HiveId>(i % 2);
    sim.hive(at).inject(MessageEnvelope::make(
        Incr{"k" + std::to_string(i % 3), 1}, 0, kNoBee, at, sim.now()));
    sim.run_for(20 * kMillisecond);
  }
  sim.run_until(3 * kSecond);
  sim.run_to_idle();

  AppId collector = apps.find_by_name("platform.collector")->id();
  std::vector<CollectorApp::TransportRow> rows;
  for (const BeeRecord& rec : sim.registry().live_bees()) {
    if (rec.app != collector) continue;
    Bee* bee = sim.hive(rec.hive).find_bee(rec.id);
    if (bee == nullptr) continue;
    auto harvested = CollectorApp::transport_from_store(bee->store());
    if (!harvested.empty()) rows = std::move(harvested);
  }
  ASSERT_EQ(rows.size(), 2u);  // one row per hive
  std::uint64_t data = 0;
  std::uint64_t retransmits = 0;
  for (const CollectorApp::TransportRow& row : rows) {
    data += row.transport.data_frames;
    retransmits += row.transport.retransmits;
    EXPECT_EQ(row.partitions_active, 0u);
    EXPECT_EQ(row.migration_aborts, 0u);
  }
  EXPECT_GT(data, 0u);
  EXPECT_GT(retransmits, 0u);
}

}  // namespace
}  // namespace beehive
