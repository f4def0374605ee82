// Tests for the cost/pressure/health loop: the sampling cost profiler
// (tick cadence, per-bee cost), the hot-path contract that a disabled
// profiler adds zero allocations, queue-pressure accounting on the sim
// runtime, health scoring, and the cost x pressure placement strategy's
// explained decisions — ending with the full loop: an induced hot-bee skew
// whose migration decision cites the measured signal.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/sim.h"
#include "instrument/collector.h"
#include "instrument/health.h"
#include "instrument/profiler.h"
#include "instrument/status_app.h"
#include "placement/strategy.h"
#include "tests/alloc_counter.h"
#include "tests/test_helpers.h"

namespace beehive {
namespace {

using testing::CounterApp;
using testing::I64;
using testing::Incr;

// ---------------------------------------------------------------------------
// CostProfiler mechanics
// ---------------------------------------------------------------------------

TEST(CostProfilerTick, DisabledNeverSamples) {
  CostProfiler p(ProfilerConfig{.enabled = false, .sample_every = 1});
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(p.tick());
}

TEST(CostProfilerTick, SamplesEveryNthActivation) {
  CostProfiler p(ProfilerConfig{.enabled = true, .sample_every = 8});
  int sampled = 0;
  for (int i = 1; i <= 64; ++i) {
    if (p.tick()) {
      ++sampled;
      EXPECT_EQ(i % 8, 0) << "sample fired off-cadence at activation " << i;
    }
  }
  EXPECT_EQ(sampled, 8);
  EXPECT_EQ(p.scale(), 8u);
}

TEST(CostProfilerTick, PeriodRoundsUpToPowerOfTwo) {
  CostProfiler p(ProfilerConfig{.enabled = true, .sample_every = 5});
  EXPECT_EQ(p.scale(), 8u);  // 5 -> next power of two
  int first = 0;
  for (int i = 1; i <= 64 && first == 0; ++i) {
    if (p.tick()) first = i;
  }
  EXPECT_EQ(first, 8);

  // sample_every = 0 degrades to measuring everything, not dividing by it.
  CostProfiler every(ProfilerConfig{.enabled = true, .sample_every = 0});
  EXPECT_EQ(every.scale(), 1u);
  EXPECT_TRUE(every.tick());
}

TEST(ThreadCpuClock, AdvancesUnderWork) {
  const std::uint64_t t0 = thread_cpu_now_ns();
  // Burn CPU until the clock must have advanced (a sleep would not).
  volatile std::uint64_t sink = 0;
  while (thread_cpu_now_ns() - t0 < 2'000'000) {
    for (int i = 0; i < 1000; ++i) sink += static_cast<std::uint64_t>(i);
  }
  EXPECT_GT(thread_cpu_now_ns(), t0);
}

// ---------------------------------------------------------------------------
// Hot vs idle bee cost in a real cluster
// ---------------------------------------------------------------------------

/// Burns a configurable amount of thread CPU per message on the "work"
/// dict, next to a free counter handler — the contrast probe for per-bee
/// cost.
struct Burn {
  static constexpr std::string_view kTypeName = "test.burn";
  std::string key;
  std::uint32_t us = 0;  ///< thread-CPU microseconds to burn

  void encode(ByteWriter& w) const {
    w.str(key);
    w.u32(us);
  }
  static Burn decode(ByteReader& r) {
    Burn b;
    b.key = r.str();
    b.us = r.u32();
    return b;
  }
};

class BurnApp : public App {
 public:
  BurnApp() : App("test.burn") {
    on<Burn>(
        [](const Burn& m) { return CellSet::single("work", m.key); },
        [](AppContext& ctx, const Burn& m) {
          const std::uint64_t until =
              thread_cpu_now_ns() + m.us * 1000ull;
          volatile std::uint64_t sink = 0;
          while (thread_cpu_now_ns() < until) {
            for (int i = 0; i < 100; ++i) sink += static_cast<std::uint64_t>(i);
          }
          I64 v = ctx.state().get_as<I64>("work", m.key).value_or(I64{});
          v.v += 1;
          ctx.state().put_as("work", m.key, v);
        });
  }
};

TEST(Profiler, HotCellOutweighsIdleCellInHeatTable) {
  AppSet apps;
  apps.emplace<BurnApp>();
  apps.emplace<CounterApp>();

  ClusterConfig cfg;
  cfg.n_hives = 1;
  cfg.hive.metrics_period = 0;
  cfg.hive.profiler.enabled = true;
  cfg.hive.profiler.sample_every = 1;  // measure every handler
  SimCluster sim(cfg, apps);
  sim.start();

  for (int i = 0; i < 32; ++i) {
    sim.hive(0).inject(MessageEnvelope::make(Burn{"hot", 200}, 0, kNoBee, 0,
                                             sim.now()));
    sim.hive(0).inject(
        MessageEnvelope::make(Incr{"idle", 1}, 0, kNoBee, 0, sim.now()));
  }
  sim.run_to_idle();

  // No metrics report runs (metrics_period = 0), so each bee's window
  // still holds every sampled run: the bee owning "work/hot" against the
  // one owning "cnt/idle".
  const AppId burn = apps.find_by_name("test.burn")->id();
  std::uint64_t hot_ns = 0, idle_ns = 0;
  for (const BeeRecord& rec : sim.registry().live_bees()) {
    const Bee* bee = sim.hive(rec.hive).find_bee(rec.id);
    ASSERT_NE(bee, nullptr);
    (rec.app == burn ? hot_ns : idle_ns) += bee->window().cost_ns_sampled;
  }
  ASSERT_GT(hot_ns, 0u) << "the burning bee never got charged";
  // 32 x 200us of real CPU vs a counter increment: the measured ratio must
  // be decisive, not marginal (10x leaves huge slack under CI noise).
  EXPECT_GT(hot_ns, idle_ns * 10 + 1)
      << "hot=" << hot_ns << "ns idle=" << idle_ns << "ns";
}

TEST(Profiler, SampledCostReachesBeeMetricsWindow) {
  AppSet apps;
  apps.emplace<BurnApp>();
  apps.emplace<StatusApp>();

  ClusterConfig cfg;
  cfg.n_hives = 1;
  cfg.hive.metrics_period = kSecond;
  cfg.hive.timers_until = kSecond;  // exactly one report, at t = 1 s
  cfg.hive.profiler.enabled = true;
  cfg.hive.profiler.sample_every = 1;
  SimCluster sim(cfg, apps);
  sim.start();

  for (int i = 0; i < 16; ++i) {
    sim.hive(0).inject(MessageEnvelope::make(Burn{"hot", 100}, 0, kNoBee, 0,
                                             sim.now()));
  }
  sim.run_to_idle();

  // The report ships the bee's window (and resets it); the StatusApp's
  // row for the bee keeps that window's cost.
  const AppId status_app = apps.find_by_name("platform.status")->id();
  const Bee* status_bee = nullptr;
  for (const BeeRecord& rec : sim.registry().live_bees()) {
    if (rec.app == status_app) status_bee = sim.hive(rec.hive).find_bee(rec.id);
  }
  ASSERT_NE(status_bee, nullptr);
  std::uint64_t cost_us = 0;
  for (const BeeStatus& row :
       StatusApp::report_from_store(status_bee->store(), sim.now()).bees) {
    if (row.app_name == "test.burn") cost_us += row.cost_us;
  }
  // 16 handlers x 100us of burned CPU: at least 1ms of it must be visible.
  EXPECT_GE(cost_us, 1000u) << "sampled cost never reached bee metrics";
}

// ---------------------------------------------------------------------------
// Profiler off: the steady-state dispatch path allocates exactly as before
// ---------------------------------------------------------------------------

TEST(ProfilerOff, LocalSteadyStateStaysAllocationFree) {
  AppSet apps;
  apps.emplace<CounterApp>();
  ClusterConfig cfg;
  cfg.n_hives = 1;
  cfg.hive.metrics_period = 0;
  cfg.hive.profiler.enabled = false;  // explicit: the contract under test
  SimCluster sim(cfg, apps);
  sim.start();

  MessageEnvelope msg =
      MessageEnvelope::make(Incr{"k0", 1}, 0, kNoBee, 0, sim.now());
  for (int i = 0; i < 2000; ++i) sim.hive(0).inject(msg);  // warm everything
  sim.run_to_idle();

  constexpr std::uint64_t kN = 5000;
  const std::uint64_t runs_before = sim.hive(0).counters().handler_runs;
  const std::uint64_t before = testing::allocation_count();
  for (std::uint64_t i = 0; i < kN; ++i) sim.hive(0).inject(msg);
  sim.run_to_idle();
  const std::uint64_t allocs = testing::allocation_count() - before;

  ASSERT_EQ(sim.hive(0).counters().handler_runs - runs_before, kN);
  EXPECT_EQ(allocs, 0u)
      << "a disabled profiler must add zero allocations to local dispatch";
}

// ---------------------------------------------------------------------------
// Queue-pressure accounting (sim runtime)
// ---------------------------------------------------------------------------

TEST(QueuePressure, SimQueueStatsTrackDepthHwmAndDrain) {
  AppSet apps;
  apps.emplace<CounterApp>();
  ClusterConfig cfg;
  cfg.n_hives = 2;
  cfg.hive.metrics_period = 0;
  SimCluster sim(cfg, apps);
  sim.start();

  const QueueStats start = sim.queue_stats(0);
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(0, kSecond, [] {});
  }
  QueueStats pending = sim.queue_stats(0);
  EXPECT_EQ(pending.depth, start.depth + 10);
  EXPECT_GE(pending.hwm, pending.depth);

  sim.run_to_idle();
  QueueStats drained = sim.queue_stats(0);
  EXPECT_EQ(drained.depth, 0u);
  EXPECT_EQ(drained.drained, start.drained + 10);
  EXPECT_GE(drained.hwm, start.depth + 10);
}

TEST(QueuePressure, ReportCarriesPressureAndHiveHealthReflectsIt) {
  AppSet apps;
  apps.emplace<CounterApp>();
  ClusterConfig cfg;
  cfg.n_hives = 1;
  cfg.hive.metrics_period = kSecond;
  cfg.hive.timers_until = 3 * kSecond;
  SimCluster sim(cfg, apps);
  sim.start();

  for (int i = 0; i < 64; ++i) {
    sim.hive(0).inject(
        MessageEnvelope::make(Incr{"k", 1}, 0, kNoBee, 0, sim.now()));
  }
  sim.run_to_idle();

  HealthReport report = sim.health();
  ASSERT_EQ(report.hives.size(), 1u);
  const HiveHealth& h = report.hives[0];
  EXPECT_EQ(h.hive, 0u);
  EXPECT_FALSE(h.suspected);
  EXPECT_GE(h.signals.pressure, 0.0);
  EXPECT_LT(h.signals.pressure, 1.0);
  // The sim drained everything, so the last window's pressure is low.
  EXPECT_LT(h.signals.pressure, 0.5);
  EXPECT_GT(h.score(), 50.0);

  const std::string json = sim.health_json();
  EXPECT_NE(json.find("\"min_score\""), std::string::npos);
  EXPECT_NE(json.find("\"pressure\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Health scoring
// ---------------------------------------------------------------------------

TEST(HealthScore, HealthyHiveScoresFull) {
  HiveHealth h;
  EXPECT_DOUBLE_EQ(h.score(), 100.0);
}

TEST(HealthScore, DeductionsStackAndClampToZero) {
  HiveHealth h;
  h.signals.pressure = 0.5;
  EXPECT_NEAR(h.score(), 100.0 - 40.0 * 0.5, 1e-9);

  h.suspected = true;
  EXPECT_NEAR(h.score(), 100.0 - 40.0 * 0.5 - 20.0, 1e-9);

  h.signals.pressure = 1.0;
  h.signals.retransmit_rate = 1.0;
  h.signals.handler_p99_us = 100'000'000;  // 100s p99
  EXPECT_DOUBLE_EQ(h.score(), 0.0);  // never negative
}

TEST(HealthScore, ReportMinScoreAndRenderings) {
  HealthReport report;
  report.at = 5 * kSecond;
  HiveHealth good;
  good.hive = 0;
  HiveHealth bad;
  bad.hive = 1;
  bad.signals.pressure = 0.9;
  bad.suspected = true;
  report.hives = {good, bad};

  EXPECT_NEAR(report.min_score(), bad.score(), 1e-9);
  EXPECT_LT(report.min_score(), 50.0);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"suspected\": true"), std::string::npos);
  EXPECT_NE(json.find("\"hive\": 1"), std::string::npos);

  const std::string text = report.to_text();
  EXPECT_NE(text.find("SUSPECTED"), std::string::npos);

  EXPECT_DOUBLE_EQ(HealthReport{}.min_score(), 100.0);
}

// ---------------------------------------------------------------------------
// CostPressureStrategy: explained decisions
// ---------------------------------------------------------------------------

ClusterView cost_view(std::uint64_t from_h0, std::uint64_t from_h1,
                      std::uint64_t cost_us) {
  ClusterView view;
  view.n_hives = 2;
  view.hive_cells[0] = 10;
  view.hive_cells[1] = 10;
  BeeView bee;
  bee.bee = make_bee_id(0, 1);
  bee.hive = 0;
  bee.cells = 3;
  bee.msgs_in = from_h0 + from_h1;
  bee.cost_us = cost_us;
  if (from_h0 > 0) bee.inbound_by_hive[0] = from_h0;
  if (from_h1 > 0) bee.inbound_by_hive[1] = from_h1;
  view.bees.push_back(bee);
  return view;
}

TEST(CostPressure, MeasuredCostDrivesSignalAndMajorityTarget) {
  CostPressureStrategy strat;
  std::vector<PlacementDecision> log;
  auto view = cost_view(10, 90, /*cost_us=*/5000);
  auto decisions = strat.decide_explained(view, &log);

  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].to, 1u);
  ASSERT_EQ(log.size(), 1u);
  const PlacementDecision& d = log[0];
  EXPECT_TRUE(d.accepted);
  EXPECT_EQ(d.reason, "majority");
  EXPECT_EQ(d.signal, "cost");
  EXPECT_EQ(d.cost_us, 5000u);
  EXPECT_DOUBLE_EQ(d.pressure_from, 0.0);
  EXPECT_DOUBLE_EQ(d.pressure_to, 0.0);
}

TEST(CostPressure, FallsBackToMessageSignalWithoutProfiler) {
  CostPressureStrategy strat;
  std::vector<PlacementDecision> log;
  auto decisions = strat.decide_explained(cost_view(10, 90, 0), &log);
  ASSERT_EQ(decisions.size(), 1u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].signal, "msgs");
  EXPECT_EQ(log[0].cost_us, 0u);
}

TEST(CostPressure, PressuredTargetVetoesTheMove) {
  CostPressureStrategy strat(CostPressureConfig{.pressure_slack = 0.25});
  auto view = cost_view(10, 90, 5000);
  view.hive_pressure[0] = 0.1;
  view.hive_pressure[1] = 0.8;  // target is drowning: moving there is wrong
  std::vector<PlacementDecision> log;
  EXPECT_TRUE(strat.decide_explained(view, &log).empty());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_FALSE(log[0].accepted);
  EXPECT_EQ(log[0].reason, "pressure_inverted");
  EXPECT_DOUBLE_EQ(log[0].pressure_from, 0.1);
  EXPECT_DOUBLE_EQ(log[0].pressure_to, 0.8);
}

TEST(CostPressure, SourcePressureScalesRankOrdering) {
  // Two bees with equal cost; the one on the pressured hive must be ranked
  // (and thus logged) first.
  ClusterView view;
  view.n_hives = 3;
  view.hive_cells[0] = view.hive_cells[1] = view.hive_cells[2] = 10;
  view.hive_pressure[0] = 0.9;
  for (int i = 0; i < 2; ++i) {
    BeeView bee;
    bee.bee = make_bee_id(static_cast<HiveId>(i), i + 1);
    bee.hive = static_cast<HiveId>(i);
    bee.cells = 1;
    bee.msgs_in = 100;
    bee.cost_us = 1000;
    bee.inbound_by_hive[2] = 100;
    view.bees.push_back(bee);
  }
  CostPressureStrategy strat;
  std::vector<PlacementDecision> log;
  auto decisions = strat.decide_explained(view, &log);
  ASSERT_EQ(decisions.size(), 2u);
  ASSERT_EQ(log.size(), 2u);
  // The bee on pressured hive 0 ranks ahead of the equal-cost bee on the
  // calm hive 1.
  EXPECT_EQ(log[0].from, 0u);
  EXPECT_GT(log[0].score, log[1].score);
}

TEST(CostPressure, RespectsNoiseFloorCapacityAndMoveCap) {
  // Below the noise floor: not even logged.
  {
    CostPressureStrategy strat(CostPressureConfig{.min_messages = 1000});
    std::vector<PlacementDecision> log;
    EXPECT_TRUE(strat.decide_explained(cost_view(10, 90, 500), &log).empty());
    EXPECT_TRUE(log.empty());
  }
  // Capacity rejection mirrors the greedy strategy's.
  {
    auto view = cost_view(0, 100, 500);
    view.hive_cells[1] = 99;
    CostPressureStrategy strat(
        CostPressureConfig{.hive_cell_capacity = 100});
    std::vector<PlacementDecision> log;
    EXPECT_TRUE(strat.decide_explained(view, &log).empty());
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].reason, "capacity");
  }
  // max_moves caps accepted migrations per round.
  {
    ClusterView view;
    view.n_hives = 2;
    view.hive_cells[0] = 100;
    view.hive_cells[1] = 100;
    for (int i = 0; i < 5; ++i) {
      BeeView bee;
      bee.bee = make_bee_id(0, i + 1);
      bee.hive = 0;
      bee.cells = 1;
      bee.msgs_in = 100;
      bee.cost_us = 100 * (i + 1);
      bee.inbound_by_hive[1] = 100;
      view.bees.push_back(bee);
    }
    CostPressureStrategy strat(CostPressureConfig{.max_moves = 2});
    EXPECT_EQ(strat.decide(view).size(), 2u);
  }
}

// ---------------------------------------------------------------------------
// The closed loop: induced hot-bee skew -> migration citing measured cost
// ---------------------------------------------------------------------------

TEST(ClosedLoop, HotBeeSkewMigratesWithMeasuredCostSignal) {
  // A pinned source on hive 2 hammers one hot cell owned by a bee on hive
  // 0. With the profiler on and the cost x pressure strategy driving the
  // optimizer, the hot bee must migrate to its majority source — and the
  // decision-log entry must cite the *measured* cost signal, not message
  // counts.
  struct SourceApp : App {
    SourceApp() : App("test.source", /*pinned=*/true) {
      every_foreach(kSecond / 2, "src",
                    [](AppContext& ctx, const MessageEnvelope&) {
                      for (int i = 0; i < 4; ++i) {
                        ctx.emit(Burn{"hot", 50});
                      }
                    });
      on<Incr>(
          [](const Incr& m) {
            return m.key == "seed" ? CellSet::single("src", "cell")
                                   : CellSet{};
          },
          [](AppContext& ctx, const Incr&) {
            ctx.state().put_as("src", "cell", I64{1});
          });
    }
  };

  AppSet apps;
  apps.emplace<BurnApp>();
  apps.emplace<SourceApp>();
  apps.emplace<CollectorApp>(
      std::make_shared<CostPressureStrategy>(
          CostPressureConfig{.majority_fraction = 0.5, .min_messages = 4}),
      3, CollectorConfig{.optimize_period = 2 * kSecond});

  ClusterConfig config;
  config.n_hives = 3;
  config.hive.metrics_period = kSecond;
  config.hive.timers_until = 12 * kSecond;
  config.hive.profiler.enabled = true;
  config.hive.profiler.sample_every = 1;
  SimCluster sim(config, apps);
  sim.start();

  sim.hive(0).inject(
      MessageEnvelope::make(Burn{"hot", 50}, 0, kNoBee, 0, 0));
  sim.hive(2).inject(MessageEnvelope::make(Incr{"seed", 1}, 0, kNoBee, 2, 0));
  sim.run_until(12 * kSecond);
  sim.run_to_idle();

  // The hot bee followed its traffic to hive 2…
  const AppId burn = apps.find_by_name("test.burn")->id();
  for (const BeeRecord& rec : sim.registry().live_bees()) {
    if (rec.app == burn) EXPECT_EQ(rec.hive, 2u);
  }

  // …and the decision log explains the move with the measured signal.
  const AppId collector = apps.find_by_name("platform.collector")->id();
  const StateStore* store = nullptr;
  for (const BeeRecord& rec : sim.registry().live_bees()) {
    if (rec.app != collector) continue;
    store = &sim.hive(rec.hive).find_bee(rec.id)->store();
  }
  ASSERT_NE(store, nullptr);

  bool cited_cost = false;
  for (const PlacementRound& round :
       CollectorApp::decisions_from_store(*store)) {
    EXPECT_EQ(round.strategy, "costpressure");
    for (const PlacementDecision& d : round.decisions) {
      if (!d.accepted || d.to != 2u) continue;
      EXPECT_EQ(d.reason, "majority");
      EXPECT_FALSE(d.signal.empty());
      if (d.signal == "cost") {
        cited_cost = true;
        EXPECT_GT(d.cost_us, 0u)
            << "a cost-signal decision must carry the measured cost";
      }
    }
  }
  EXPECT_TRUE(cited_cost)
      << "no accepted migration cited the profiler's cost measurement";
}

}  // namespace
}  // namespace beehive
