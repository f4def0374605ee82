// Property-based tests: randomized workloads swept over cluster sizes and
// seeds (TEST_P / INSTANTIATE_TEST_SUITE_P), asserting the platform's core
// invariants from DESIGN.md §6:
//   1. exclusive ownership — every cell lives on exactly one bee;
//   2. intersecting-map collocation — keys linked by pair messages end on
//      the same bee, transitively;
//   4. migration transparency — no loss/duplication under random moves;
//   6. behaviour preservation — totals independent of cluster size/layout.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>

#include "cluster/sim.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace beehive {
namespace {

using testing::CounterApp;
using testing::I64;
using testing::Incr;
using testing::PairIncr;
using testing::SumQuery;

struct WorkloadParams {
  std::size_t n_hives;
  std::size_t n_keys;
  std::size_t n_messages;
  std::uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os, const WorkloadParams& p) {
    return os << "hives" << p.n_hives << "_keys" << p.n_keys << "_msgs"
              << p.n_messages << "_seed" << p.seed;
  }
};

class RandomWorkload : public ::testing::TestWithParam<WorkloadParams> {
 protected:
  RandomWorkload() { apps_.emplace<CounterApp>(); }

  SimCluster make_sim() {
    ClusterConfig config;
    config.n_hives = GetParam().n_hives;
    config.seed = GetParam().seed;
    config.hive.metrics_period = 0;
    return SimCluster(config, apps_);
  }

  AppId counter_app() { return apps_.find_by_name("test.counter")->id(); }

  /// Collects key -> (owning bee, value) over every hive, asserting no key
  /// appears on two bees (invariant 1).
  std::map<std::string, std::pair<BeeId, std::int64_t>> harvest(
      SimCluster& sim) {
    std::map<std::string, std::pair<BeeId, std::int64_t>> out;
    for (HiveId h = 0; h < GetParam().n_hives; ++h) {
      for (Bee* bee : sim.hive(h).local_bees()) {
        if (bee->app() != counter_app()) continue;
        const Dict* dict = bee->store().find_dict(CounterApp::kDict);
        if (dict == nullptr) continue;
        dict->for_each([&out, bee](const std::string& key, const Bytes& v) {
          auto [it, inserted] =
              out.emplace(key, std::make_pair(bee->id(),
                                              decode_from_bytes<I64>(v).v));
          EXPECT_TRUE(inserted)
              << "cell " << key << " present on two bees: "
              << to_string_bee(it->second.first) << " and "
              << to_string_bee(bee->id());
        });
      }
    }
    return out;
  }

  AppSet apps_;
};

TEST_P(RandomWorkload, ExclusiveOwnershipAndExactCounts) {
  const WorkloadParams& p = GetParam();
  SimCluster sim = make_sim();
  sim.start();
  Xoshiro256 rng(p.seed);

  std::map<std::string, std::int64_t> expected;
  for (std::size_t i = 0; i < p.n_messages; ++i) {
    std::string key = "k" + std::to_string(rng.next_below(p.n_keys));
    auto amount = static_cast<std::int64_t>(rng.next_below(10));
    auto hive = static_cast<HiveId>(rng.next_below(p.n_hives));
    expected[key] += amount;
    sim.hive(hive).inject(MessageEnvelope::make(Incr{key, amount}, 0, kNoBee,
                                                hive, sim.now()));
    if (i % 64 == 0) sim.run_to_idle();
  }
  sim.run_to_idle();

  auto actual = harvest(sim);
  for (const auto& [key, total] : expected) {
    ASSERT_TRUE(actual.contains(key)) << key;
    EXPECT_EQ(actual[key].second, total) << key;
  }
}

TEST_P(RandomWorkload, PairMessagesColocateTransitively) {
  const WorkloadParams& p = GetParam();
  SimCluster sim = make_sim();
  sim.start();
  Xoshiro256 rng(p.seed ^ 0xabcdef);

  // Union-find ground truth of which keys must share a bee.
  std::vector<std::size_t> parent(p.n_keys);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    return parent[x] == x ? x : parent[x] = find(parent[x]);
  };

  std::map<std::string, std::int64_t> expected;
  for (std::size_t i = 0; i < p.n_messages; ++i) {
    auto hive = static_cast<HiveId>(rng.next_below(p.n_hives));
    if (rng.next_below(4) == 0) {
      std::size_t a = rng.next_below(p.n_keys);
      std::size_t b = rng.next_below(p.n_keys);
      parent[find(a)] = find(b);
      std::string ka = "k" + std::to_string(a);
      std::string kb = "k" + std::to_string(b);
      expected[ka] += 1;
      if (kb != ka) expected[kb] += 1;
      sim.hive(hive).inject(MessageEnvelope::make(PairIncr{ka, kb}, 0,
                                                  kNoBee, hive, sim.now()));
    } else {
      std::string key = "k" + std::to_string(rng.next_below(p.n_keys));
      expected[key] += 1;
      sim.hive(hive).inject(MessageEnvelope::make(Incr{key, 1}, 0, kNoBee,
                                                  hive, sim.now()));
    }
    if (i % 32 == 0) sim.run_to_idle();
  }
  sim.run_to_idle();

  auto actual = harvest(sim);
  // Counts exact (invariant 4: merges lose nothing).
  for (const auto& [key, total] : expected) {
    ASSERT_TRUE(actual.contains(key)) << key;
    EXPECT_EQ(actual[key].second, total) << key;
  }
  // Collocation matches the union-find ground truth (invariant 2): keys in
  // the same component share a bee.
  std::map<std::size_t, BeeId> component_bee;
  for (std::size_t k = 0; k < p.n_keys; ++k) {
    std::string key = "k" + std::to_string(k);
    if (!actual.contains(key)) continue;
    std::size_t root = find(k);
    auto [it, inserted] = component_bee.emplace(root, actual[key].first);
    EXPECT_EQ(it->second, actual[key].first)
        << "keys of one component split across bees (key " << key << ")";
  }
}

TEST_P(RandomWorkload, RandomMigrationsLoseNothing) {
  const WorkloadParams& p = GetParam();
  if (p.n_hives < 2) GTEST_SKIP();
  SimCluster sim = make_sim();
  sim.start();
  Xoshiro256 rng(p.seed ^ 0x777);

  std::map<std::string, std::int64_t> expected;
  for (std::size_t i = 0; i < p.n_messages; ++i) {
    std::string key = "k" + std::to_string(rng.next_below(p.n_keys));
    auto hive = static_cast<HiveId>(rng.next_below(p.n_hives));
    expected[key] += 1;
    sim.hive(hive).inject(
        MessageEnvelope::make(Incr{key, 1}, 0, kNoBee, hive, sim.now()));
    // Every few messages, order a random live bee to a random hive while
    // traffic is still in flight.
    if (rng.next_below(8) == 0) {
      auto bees = sim.registry().live_bees();
      if (!bees.empty()) {
        const BeeRecord& victim = bees[rng.next_below(bees.size())];
        auto to = static_cast<HiveId>(rng.next_below(p.n_hives));
        sim.hive(victim.hive).request_migration(victim.id, to);
      }
    }
    if (i % 16 == 0) sim.run_to_idle();
  }
  sim.run_to_idle();

  auto actual = harvest(sim);
  for (const auto& [key, total] : expected) {
    ASSERT_TRUE(actual.contains(key)) << key;
    EXPECT_EQ(actual[key].second, total) << key;
  }
}

TEST_P(RandomWorkload, TotalsIndependentOfClusterSize) {
  // Invariant 6 (behaviour preservation): the same logical workload on 1
  // hive and on N hives yields identical application state.
  const WorkloadParams& p = GetParam();

  auto run = [this, &p](std::size_t hives) {
    ClusterConfig config;
    config.n_hives = hives;
    config.seed = p.seed;
    config.hive.metrics_period = 0;
    SimCluster sim(config, apps_);
    sim.start();
    Xoshiro256 rng(p.seed ^ 0x42);
    for (std::size_t i = 0; i < p.n_messages; ++i) {
      std::string key = "k" + std::to_string(rng.next_below(p.n_keys));
      auto hive = static_cast<HiveId>(rng.next_below(hives));
      sim.hive(hive).inject(
          MessageEnvelope::make(Incr{key, 1}, 0, kNoBee, hive, sim.now()));
    }
    sim.run_to_idle();
    // Also exercise the whole-dict path: the grand total must match.
    std::map<std::string, std::int64_t> values;
    for (HiveId h = 0; h < hives; ++h) {
      for (Bee* bee : sim.hive(h).local_bees()) {
        const Dict* dict = bee->store().find_dict(CounterApp::kDict);
        if (dict == nullptr) continue;
        dict->for_each([&values](const std::string& k, const Bytes& v) {
          values[k] += decode_from_bytes<I64>(v).v;
        });
      }
    }
    return values;
  };

  auto centralized = run(1);
  auto distributed = run(p.n_hives);
  EXPECT_EQ(centralized, distributed);
}

TEST_P(RandomWorkload, WholeDictSumSeesEverything) {
  const WorkloadParams& p = GetParam();
  apps_.emplace<testing::SinkApp>();
  SimCluster sim = make_sim();
  sim.start();
  Xoshiro256 rng(p.seed ^ 0x5150);

  std::int64_t grand_total = 0;
  for (std::size_t i = 0; i < p.n_messages; ++i) {
    std::string key = "k" + std::to_string(rng.next_below(p.n_keys));
    auto amount = static_cast<std::int64_t>(1 + rng.next_below(5));
    auto hive = static_cast<HiveId>(rng.next_below(p.n_hives));
    grand_total += amount;
    sim.hive(hive).inject(MessageEnvelope::make(Incr{key, amount}, 0, kNoBee,
                                                hive, sim.now()));
  }
  sim.run_to_idle();
  sim.hive(0).inject(
      MessageEnvelope::make(SumQuery{1}, 0, kNoBee, 0, sim.now()));
  sim.run_to_idle();

  AppId sink = apps_.find_by_name("test.sink")->id();
  std::optional<std::int64_t> seen;
  for (const BeeRecord& rec : sim.registry().live_bees()) {
    if (rec.app != sink) continue;
    Bee* bee = sim.hive(rec.hive).find_bee(rec.id);
    ASSERT_NE(bee, nullptr);
    if (auto v = bee->store()
                     .dict(testing::SinkApp::kDict)
                     .get_as<I64>("last:*sum*")) {
      seen = v->v;
    }
  }
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(*seen, grand_total);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomWorkload,
    ::testing::Values(
        WorkloadParams{1, 4, 100, 1}, WorkloadParams{2, 8, 200, 2},
        WorkloadParams{4, 16, 400, 3}, WorkloadParams{4, 16, 400, 4},
        WorkloadParams{8, 32, 600, 5}, WorkloadParams{8, 4, 600, 6},
        WorkloadParams{16, 64, 800, 7}, WorkloadParams{3, 2, 300, 8}),
    [](const ::testing::TestParamInfo<WorkloadParams>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

// ---------------------------------------------------------------------------
// Determinism under fault injection: the same seed, fault plan and workload
// must reproduce the run bit-for-bit — traffic matrix, bandwidth series,
// injected-fault tallies and final application state.
// ---------------------------------------------------------------------------

class FaultedDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultedDeterminism, IdenticalFaultedRunsAreIdentical) {
  AppSet apps;
  apps.emplace<CounterApp>();

  auto run = [&apps](std::uint64_t seed) {
    ClusterConfig config;
    config.n_hives = 4;
    config.seed = seed;
    config.hive.metrics_period = 0;
    config.hive.transport.enabled = true;
    SimCluster sim(config, apps);
    sim.start();
    sim.faults().set_default_link({.drop = 0.1,
                                   .duplicate = 0.05,
                                   .jitter = 0.3,
                                   .jitter_max = kMillisecond,
                                   .reorder = 0.1});
    sim.faults().partition(1, 3);
    Xoshiro256 workload(seed + 1);
    for (int i = 0; i < 200; ++i) {
      auto hive = static_cast<HiveId>(workload.next_below(4));
      std::string key = "k" + std::to_string(workload.next_below(8));
      sim.hive(hive).inject(MessageEnvelope::make(Incr{key, 1}, 0, kNoBee,
                                                  hive, sim.now()));
      sim.run_for(100 * kMicrosecond);
      if (i == 100) sim.faults().heal(1, 3);
    }
    sim.run_to_idle();

    struct Result {
      std::vector<std::uint64_t> matrix;
      std::vector<std::uint64_t> series;
      std::uint64_t dropped, duplicated, delayed, partitioned;
      std::map<std::string, std::int64_t> counters;
    } r;
    for (HiveId from = 0; from < 4; ++from) {
      for (HiveId to = 0; to < 4; ++to) {
        r.matrix.push_back(sim.meter().matrix_bytes(from, to));
        r.matrix.push_back(sim.meter().matrix_messages(from, to));
      }
    }
    r.series = sim.meter().bandwidth_series();
    r.dropped = sim.faults().stats().frames_dropped;
    r.duplicated = sim.faults().stats().frames_duplicated;
    r.delayed = sim.faults().stats().frames_delayed;
    r.partitioned = sim.faults().stats().frames_partitioned;
    AppId app = apps.find_by_name("test.counter")->id();
    for (const BeeRecord& rec : sim.registry().live_bees()) {
      if (rec.app != app) continue;
      Bee* bee = sim.hive(rec.hive).find_bee(rec.id);
      if (bee == nullptr) continue;
      if (const Dict* d = bee->store().find_dict(CounterApp::kDict)) {
        d->for_each([&r](const std::string& key, const Bytes& v) {
          r.counters[key] = decode_from_bytes<I64>(v).v;
        });
      }
    }
    return r;
  };

  auto a = run(GetParam());
  auto b = run(GetParam());
  EXPECT_EQ(a.matrix, b.matrix);
  EXPECT_EQ(a.series, b.series);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.delayed, b.delayed);
  EXPECT_EQ(a.partitioned, b.partitioned);
  EXPECT_EQ(a.counters, b.counters);
  // The plan actually did something, and the workload still landed exactly.
  EXPECT_GT(a.dropped, 0u);
  EXPECT_GT(a.partitioned, 0u);
  std::int64_t total = 0;
  for (const auto& [key, v] : a.counters) total += v;
  EXPECT_EQ(total, 200);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultedDeterminism,
                         ::testing::Values(11u, 22u, 33u));

// ---------------------------------------------------------------------------
// Codec property sweep: random values survive a wire round-trip.
// ---------------------------------------------------------------------------

class CodecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecProperty, EnvelopeRoundTripRandomized) {
  Xoshiro256 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Incr msg;
    std::size_t len = rng.next_below(40);
    msg.key.reserve(len);
    for (std::size_t c = 0; c < len; ++c) {
      msg.key.push_back(static_cast<char>(rng.next_below(256)));
    }
    msg.amount = static_cast<std::int64_t>(rng.next());
    auto env = MessageEnvelope::make(
        msg, static_cast<AppId>(rng.next_below(1000)), rng.next(),
        static_cast<HiveId>(rng.next_below(64)),
        static_cast<TimePoint>(rng.next_below(1u << 30)));
    MessageEnvelope back = MessageEnvelope::from_wire(env.to_wire());
    EXPECT_EQ(back.as<Incr>().key, msg.key);
    EXPECT_EQ(back.as<Incr>().amount, msg.amount);
    EXPECT_EQ(back.from_bee(), env.from_bee());
  }
}

TEST_P(CodecProperty, VarintRoundTripRandomized) {
  Xoshiro256 rng(GetParam() ^ 0x1234);
  ByteWriter w;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 500; ++i) {
    // Bias toward small values and boundaries.
    std::uint64_t v = rng.next() >> (rng.next_below(64));
    values.push_back(v);
    w.varint(v);
  }
  ByteReader r(w.bytes());
  for (std::uint64_t v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.done());
}

TEST_P(CodecProperty, StateSnapshotRoundTripRandomized) {
  Xoshiro256 rng(GetParam() ^ 0x9999);
  StateStore store;
  for (int i = 0; i < 50; ++i) {
    std::string dict = "d" + std::to_string(rng.next_below(5));
    std::string key = "k" + std::to_string(rng.next_below(20));
    Bytes value;
    std::size_t len = rng.next_below(100);
    for (std::size_t c = 0; c < len; ++c) {
      value.push_back(static_cast<char>(rng.next_below(256)));
    }
    store.dict(dict).put(key, value);
  }
  StateStore back = StateStore::from_snapshot(store.snapshot());
  EXPECT_EQ(back.snapshot(), store.snapshot());
  EXPECT_EQ(back.byte_size(), store.byte_size());
  EXPECT_EQ(back.cell_count(), store.cell_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace beehive
