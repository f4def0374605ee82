// Tests for the introspection layer: the metrics registry (hot-path
// allocation contract, Prometheus text exposition), the StatusApp's
// time-series rings, the latency-histogram edge cases, the explained
// optimizer decision log, the StatusApp report, the flight recorder and
// the HTTP exporter.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <future>
#include <latch>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/sim.h"
#include "instrument/collector.h"
#include "instrument/flight_recorder.h"
#include "instrument/histogram.h"
#include "instrument/registry.h"
#include "instrument/status_app.h"
#include "net/http_export.h"
#include "placement/strategy.h"
#include "tests/alloc_counter.h"
#include "tests/test_helpers.h"
#include "util/logging.h"

namespace beehive {
namespace {

using testing::CounterApp;
using testing::I64;
using testing::Incr;

/// Records `v` the way a hive does: bucket index once, then bump_at.
void record(HistogramMetric& h, std::uint64_t v) {
  h.bump_at(LatencyHistogram::index(v), v);
}

// ---------------------------------------------------------------------------
// Registry hot path: O(1), allocation-free updates
// ---------------------------------------------------------------------------

TEST(RegistryHotPath, UpdatesDoNotAllocate) {
  MetricsRegistry reg;
  Counter c;  // hive-owned cells, single writer
  HistogramMetric exposed;
  reg.expose_counter("hot_counter", {{"hive", "0"}}, &c);
  reg.expose_histogram("hot_exposed", {}, &exposed);
  TimeSeriesRing ring;

  // Warm up once (first touches of lazily-paged memory are not allocs,
  // but keep the measured region strictly steady-state anyway).
  c.bump();
  exposed.bump_at(LatencyHistogram::index(123), 123);
  ring.push(0, 1.0);

  const std::uint64_t before = testing::allocation_count();
  for (int i = 0; i < 10000; ++i) {
    c.bump();
    c.bump(2);
    exposed.bump_at(LatencyHistogram::index(static_cast<std::uint64_t>(i)),
                    static_cast<std::uint64_t>(i));
    ring.push(i, 2.0);
  }
  const std::uint64_t after = testing::allocation_count();
  EXPECT_EQ(after, before)
      << "metric updates must not allocate on the hot path";

  EXPECT_EQ(c.get(), 1u + 10000u * 3u);
  EXPECT_EQ(exposed.count(), 10001u);
  EXPECT_EQ(ring.size(), ring.capacity());  // wrapped, still bounded
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

TEST(PrometheusText, SanitizesNames) {
  EXPECT_EQ(prometheus_sanitize("already_fine:name"), "already_fine:name");
  EXPECT_EQ(prometheus_sanitize("http.requests-total"),
            "http_requests_total");
  EXPECT_EQ(prometheus_sanitize("2fast"), "_2fast");
  EXPECT_EQ(prometheus_sanitize("a b/c"), "a_b_c");
  EXPECT_EQ(prometheus_sanitize(""), "_");
}

TEST(PrometheusText, ExactCounterAndGaugeLines) {
  MetricsRegistry reg;
  Counter c;
  reg.expose_counter("msgs_total", {{"hive", "3"}}, &c, "Messages seen");
  c.bump(5);
  reg.gauge_fn("depth", {}, [] { return 2.5; }, "Queue depth");

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# HELP msgs_total Messages seen\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE msgs_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("msgs_total{hive=\"3\"} 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("depth 2.5\n"), std::string::npos);
}

TEST(PrometheusText, DirtyFamilyNameIsSanitizedInOutput) {
  MetricsRegistry reg;
  Counter c;
  c.bump(7);
  reg.expose_counter("http.requests-total", {{"hive", "1"}}, &c);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE http_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("http_requests_total{hive=\"1\"} 7\n"),
            std::string::npos);
  EXPECT_EQ(text.find("http.requests-total"), std::string::npos);
}

TEST(PrometheusText, HistogramRendersCumulativeBuckets) {
  MetricsRegistry reg;
  HistogramMetric h;
  reg.expose_histogram("lat_us", {}, &h, "Latency");
  record(h, 3);
  record(h, 3);
  record(h, 200);

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE lat_us histogram\n"), std::string::npos);
  // 3us lands above the le=1 bound, inside le=4.
  EXPECT_NE(text.find("lat_us_bucket{le=\"1\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"4\"} 2\n"), std::string::npos);
  // 200us is past le=64 (its native bucket's low edge is 200)…
  EXPECT_NE(text.find("lat_us_bucket{le=\"64\"} 2\n"), std::string::npos);
  // …and inside le=256. Buckets are cumulative.
  EXPECT_NE(text.find("lat_us_bucket{le=\"256\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_sum 206\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count 3\n"), std::string::npos);
}

TEST(PrometheusText, HistogramBucketNotCountedAtBoundItStraddles) {
  MetricsRegistry reg;
  HistogramMetric h;
  reg.expose_histogram("lat_us", {}, &h, "Latency");
  // 1050us lands in native bucket [1024, 1088), which straddles the
  // le="1024" bound; it must count toward le="4096", not le="1024".
  record(h, 1050);

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("lat_us_bucket{le=\"1024\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"4096\"} 1\n"), std::string::npos);
}

TEST(PrometheusText, FamilyHeaderPrintsOncePerName) {
  MetricsRegistry reg;
  Counter h0;
  Counter h1;
  h0.bump(1);
  h1.bump(2);
  reg.expose_counter("family_total", {{"hive", "0"}}, &h0);
  reg.expose_counter("family_total", {{"hive", "1"}}, &h1);
  const std::string text = reg.prometheus_text();

  std::size_t headers = 0;
  for (std::size_t pos = 0;
       (pos = text.find("# TYPE family_total counter", pos)) !=
       std::string::npos;
       ++pos) {
    ++headers;
  }
  EXPECT_EQ(headers, 1u);
  EXPECT_NE(text.find("family_total{hive=\"0\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("family_total{hive=\"1\"} 2\n"), std::string::npos);
}

TEST(PrometheusText, PullGaugeHonorsCounterSemantics) {
  MetricsRegistry reg;
  reg.gauge_fn("channel_bytes_total", {}, [] { return 4096.0; },
               "Wire bytes", /*counter_semantics=*/true);
  reg.gauge_fn("hotspot_share", {}, [] { return 0.25; });
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE channel_bytes_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("channel_bytes_total 4096\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hotspot_share gauge\n"), std::string::npos);
  EXPECT_NE(text.find("hotspot_share 0.25\n"), std::string::npos);
}

TEST(PrometheusText, LabelValuesAreEscaped) {
  MetricsRegistry reg;
  Counter c;
  c.bump();
  reg.expose_counter("esc_total", {{"path", "a\"b\\c"}}, &c);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("esc_total{path=\"a\\\"b\\\\c\"} 1\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Registry bookkeeping
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, RegistrationDeduplicatesByNameAndLabels) {
  MetricsRegistry reg;
  Counter a;
  Counter b;
  Counter other;
  a.bump(3);
  b.bump(5);
  reg.expose_counter("c", {{"hive", "0"}}, &a);
  reg.expose_counter("c", {{"hive", "0"}}, &b);  // re-points the series
  reg.expose_counter("c", {{"hive", "1"}}, &other);
  EXPECT_EQ(reg.series_count(), 2u);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("c{hive=\"0\"} 5\n"), std::string::npos);
  EXPECT_EQ(text.find("c{hive=\"0\"} 3\n"), std::string::npos);

  HistogramMetric h1;
  HistogramMetric h2;
  reg.expose_histogram("h", {}, &h1);
  reg.expose_histogram("h", {}, &h2);
  EXPECT_EQ(reg.series_count(), 3u);
}

TEST(MetricsRegistry, KindMismatchOnExistingSeriesThrows) {
  MetricsRegistry reg;
  reg.gauge_fn("x", {{"hive", "0"}}, [] { return 1.0; });
  // Same (name, labels) with a different kind must fail loudly instead of
  // dereferencing the wrong (null) cell pointer.
  Counter counter;
  HistogramMetric cell;
  EXPECT_THROW(reg.expose_counter("x", {{"hive", "0"}}, &counter),
               std::logic_error);
  EXPECT_THROW(reg.expose_histogram("x", {{"hive", "0"}}, &cell),
               std::logic_error);
  // Different labels are a different series: any kind is fine.
  reg.expose_counter("x", {{"hive", "1"}}, &counter);
}

TEST(MetricsRegistry, ScrapeCallbacksRunWithoutTheRegistryLock) {
  MetricsRegistry reg;
  Counter plain;
  plain.bump(2);
  reg.expose_counter("plain_total", {}, &plain);
  // A pull gauge that re-enters the registry during the scrape: with the
  // mutex held across callbacks this self-deadlocks.
  reg.gauge_fn("reentrant", {}, [&reg] {
    return static_cast<double>(reg.series_count());
  });
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("reentrant 2\n"), std::string::npos);
}

TEST(MetricsRegistry, ExposedCounterCellIsRenderedInPlace) {
  MetricsRegistry reg;
  Counter cell;  // externally owned, e.g. a Hive::Counters field
  reg.expose_counter("owned_total", {{"hive", "7"}}, &cell, "External cell");
  cell.bump(41);
  cell.bump();
  EXPECT_EQ(static_cast<std::uint64_t>(cell), 42u);  // implicit conversion
  EXPECT_NE(reg.prometheus_text().find("owned_total{hive=\"7\"} 42\n"),
            std::string::npos);
}

TEST(MetricsRegistry, ExposedHistogramCellIsReadAtEveryScrape) {
  MetricsRegistry reg;
  HistogramMetric cell;  // externally owned, e.g. a hive's latency cell
  reg.expose_histogram("owned_us", {{"hive", "7"}}, &cell, "External cell");
  EXPECT_NE(reg.prometheus_text().find("owned_us_count{hive=\"7\"} 0\n"),
            std::string::npos);
  cell.bump_at(LatencyHistogram::index(40), 40);
  record(cell, 2);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE owned_us histogram\n"), std::string::npos);
  EXPECT_NE(text.find("owned_us_bucket{hive=\"7\",le=\"4\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("owned_us_sum{hive=\"7\"} 42\n"), std::string::npos);
  EXPECT_NE(text.find("owned_us_count{hive=\"7\"} 2\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TimeSeriesRing (the StatusApp's per-window rate cells)
// ---------------------------------------------------------------------------

TEST(TimeSeriesRingTest, WrapsAndSnapshotsOldestFirst) {
  TimeSeriesRing ring(4);
  for (int i = 1; i <= 6; ++i) {
    ring.push(i * kSecond, static_cast<double>(i));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  auto samples = ring.snapshot();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples.front().at, 3 * kSecond);  // 1 and 2 evicted
  EXPECT_EQ(samples.back().at, 6 * kSecond);
  EXPECT_DOUBLE_EQ(samples.front().value, 3.0);
  EXPECT_DOUBLE_EQ(samples.back().value, 6.0);
}

TEST(TimeSeriesRingTest, WireRoundTripPreservesSamplesAndCapacity) {
  TimeSeriesRing ring(3);
  for (int i = 1; i <= 5; ++i) {
    ring.push(i * kMillisecond, i * 1.5);
  }
  TimeSeriesRing back = decode_from_bytes<TimeSeriesRing>(
      encode_to_bytes(ring));
  EXPECT_EQ(back.capacity(), 3u);
  auto a = ring.snapshot();
  auto b = back.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_DOUBLE_EQ(a[i].value, b[i].value);
  }
}

// ---------------------------------------------------------------------------
// LatencyHistogram edge cases
// ---------------------------------------------------------------------------

TEST(LatencyHistogramEdge, EmptyHistogramPercentilesAreZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.p99(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogramEdge, HugeValuesClampIntoTopBucket) {
  const auto huge = static_cast<Duration>(std::uint64_t{1} << 40);  // ~13 days
  EXPECT_EQ(LatencyHistogram::index(static_cast<std::uint64_t>(huge)),
            LatencyHistogram::kBuckets - 1);

  LatencyHistogram h;
  h.record(huge);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.count(), 1u);
  // The exact value survives in sum/max even though the bucket saturates.
  EXPECT_EQ(h.max(), static_cast<std::uint64_t>(huge));
  EXPECT_EQ(h.sum(), static_cast<std::uint64_t>(huge));
  // The percentile answers with the top bucket's representative, which is
  // necessarily below the recorded value (clamped), but non-zero.
  EXPECT_GT(h.p50(), 0u);
  EXPECT_LE(h.p50(), static_cast<std::uint64_t>(huge));
}

TEST(LatencyHistogramEdge, MergeIsCommutative) {
  LatencyHistogram a;
  a.record(3);
  a.record(5000);
  a.record(static_cast<Duration>(std::uint64_t{1} << 40));
  LatencyHistogram b;
  b.record(7);
  b.record(120);
  b.record(120);

  LatencyHistogram ab = a;
  ab.merge(b);
  LatencyHistogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.count(), 6u);
  EXPECT_EQ(ab.sum(), a.sum() + b.sum());
}

TEST(LatencyHistogramEdge, SparseWireRoundTripKeepsClampBucket) {
  LatencyHistogram h;
  h.record(0);
  h.record(15);  // last exact bucket
  h.record(16);  // first sub-bucketed octave
  h.record(static_cast<Duration>(std::uint64_t{1} << 40));  // clamp bucket

  LatencyHistogram back =
      decode_from_bytes<LatencyHistogram>(encode_to_bytes(h));
  EXPECT_EQ(back, h);
  EXPECT_EQ(back.count(), 4u);  // recomputed from sparse buckets
  EXPECT_EQ(back.bucket_count(LatencyHistogram::kBuckets - 1), 1u);
  EXPECT_EQ(back.max(), std::uint64_t{1} << 40);
}

TEST(HistogramMetricTest, MergeAndSnapshotMatchPlainHistogram) {
  // Two plain histograms merged hold what one cell records through
  // bump_at() from both value sets.
  LatencyHistogram first;
  first.record(42);
  first.record(10);
  LatencyHistogram second;
  second.record(300);
  second.record(300);
  LatencyHistogram merged = first;
  merged.merge(second);

  HistogramMetric m;
  m.bump_at(LatencyHistogram::index(42), 42);
  m.bump_at(LatencyHistogram::index(10), 10);
  m.bump_at(LatencyHistogram::index(300), 300);
  m.bump_at(LatencyHistogram::index(300), 300);
  EXPECT_EQ(m.count(), merged.count());
  EXPECT_EQ(m.sum(), merged.sum());

  const LatencyHistogram snap = m.snapshot();
  EXPECT_EQ(snap.count(), 4u);
  for (std::uint32_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(snap.bucket_count(i), merged.bucket_count(i)) << i;
  }
  EXPECT_EQ(snap.p50(), merged.p50());
  EXPECT_EQ(snap.p99(), merged.p99());
}

// ---------------------------------------------------------------------------
// Explained placement decisions (pure logic + codec)
// ---------------------------------------------------------------------------

ClusterView explained_view(std::uint64_t from_h0, std::uint64_t from_h1) {
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

TEST(DecideExplained, GreedyRecordsAcceptedMajorityMove) {
  GreedyFollowSources greedy;
  std::vector<PlacementDecision> log;
  auto decisions = greedy.decide_explained(explained_view(10, 90), &log);
  ASSERT_EQ(decisions.size(), 1u);
  ASSERT_EQ(log.size(), 1u);
  const PlacementDecision& d = log[0];
  EXPECT_TRUE(d.accepted);
  EXPECT_EQ(d.reason, "majority");
  EXPECT_EQ(d.from, 0u);
  EXPECT_EQ(d.to, 1u);
  EXPECT_EQ(d.msgs_total, 100u);
  EXPECT_EQ(d.msgs_from_target, 90u);
  EXPECT_DOUBLE_EQ(d.score, 0.9);
  ASSERT_EQ(d.inbound.size(), 2u);  // full traffic-matrix slice retained
}

TEST(DecideExplained, GreedyRecordsLocalMajorityRejection) {
  GreedyFollowSources greedy;
  std::vector<PlacementDecision> log;
  EXPECT_TRUE(greedy.decide_explained(explained_view(90, 10), &log).empty());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_FALSE(log[0].accepted);
  EXPECT_EQ(log[0].reason, "local_majority");
  EXPECT_EQ(log[0].to, log[0].from);  // no candidate target
}

TEST(DecideExplained, GreedyRecordsCapacityRejection) {
  auto view = explained_view(0, 100);
  view.hive_cells[1] = 99;
  GreedyFollowSources greedy(GreedyConfig{.hive_cell_capacity = 100});
  std::vector<PlacementDecision> log;
  EXPECT_TRUE(greedy.decide_explained(view, &log).empty());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_FALSE(log[0].accepted);
  EXPECT_EQ(log[0].reason, "capacity");
  EXPECT_EQ(log[0].to, 1u);  // the candidate that lacked room
}

TEST(DecideExplained, BaseImplementationRecordsAcceptedMovesOnly) {
  // RandomStrategy doesn't override decide_explained: the base synthesizes
  // accepted records (reason = strategy name) from decide()'s output.
  RandomStrategy random(/*seed=*/7, /*move_fraction=*/1.0);
  auto view = explained_view(0, 100);
  std::vector<PlacementDecision> log;
  auto decisions = random.decide_explained(view, &log);
  ASSERT_EQ(log.size(), decisions.size());
  for (const PlacementDecision& d : log) {
    EXPECT_TRUE(d.accepted);
    EXPECT_EQ(d.reason, "random");
    EXPECT_EQ(d.from, 0u);
    EXPECT_EQ(d.msgs_total, 100u);
  }
}

TEST(PlacementDecisionCodec, RoundTripsThroughPlacementRound) {
  PlacementRound round;
  round.round = 5;
  round.at = 12 * kSecond;
  round.strategy = "greedy";
  PlacementDecision d;
  d.bee = make_bee_id(1, 9);
  d.from = 1;
  d.to = 2;
  d.accepted = true;
  d.msgs_total = 40;
  d.msgs_from_target = 30;
  d.score = 0.75;
  d.reason = "majority";
  d.inbound = {{0, 10}, {2, 30}};
  round.decisions.push_back(d);
  round.decisions.push_back(PlacementDecision{});  // defaults round-trip too

  PlacementRound back =
      decode_from_bytes<PlacementRound>(encode_to_bytes(round));
  EXPECT_EQ(back.round, 5u);
  EXPECT_EQ(back.at, 12 * kSecond);
  EXPECT_EQ(back.strategy, "greedy");
  ASSERT_EQ(back.decisions.size(), 2u);
  EXPECT_EQ(back.decisions[0].bee, make_bee_id(1, 9));
  EXPECT_EQ(back.decisions[0].to, 2u);
  EXPECT_TRUE(back.decisions[0].accepted);
  EXPECT_EQ(back.decisions[0].reason, "majority");
  EXPECT_DOUBLE_EQ(back.decisions[0].score, 0.75);
  ASSERT_EQ(back.decisions[0].inbound.size(), 2u);
  EXPECT_EQ(back.decisions[0].inbound[1].second, 30u);
  EXPECT_FALSE(back.decisions[1].accepted);
}

// ---------------------------------------------------------------------------
// Cluster wiring: the SimCluster-owned registry exposes per-hive platform
// metrics after a run.
// ---------------------------------------------------------------------------

double metric_value(const std::string& text, const std::string& series) {
  const std::string needle = series + " ";
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::atof(text.c_str() + pos + needle.size());
}

TEST(ClusterIntrospection, SimClusterExposesHiveMetrics) {
  AppSet apps;
  apps.emplace<CounterApp>();

  ClusterConfig config;
  config.n_hives = 2;
  config.hive.metrics_period = kSecond;
  config.hive.timers_until = 3 * kSecond;
  SimCluster sim(config, apps);
  ASSERT_NE(sim.metrics(), nullptr);
  sim.start();

  for (int i = 0; i < 5; ++i) {
    sim.hive(0).inject(MessageEnvelope::make(
        Incr{"k" + std::to_string(i), 1}, 0, kNoBee, 0, sim.now()));
  }
  sim.run_until(3 * kSecond);
  sim.run_to_idle();

  const std::string text = sim.metrics()->prometheus_text();
  EXPECT_GE(metric_value(text, "beehive_messages_injected_total{hive=\"0\"}"),
            5.0);
  EXPECT_GE(metric_value(text, "beehive_handler_runs_total{hive=\"0\"}"),
            5.0);
  // Gauges are published once per metrics window from the hive thread.
  EXPECT_GE(metric_value(text, "beehive_bees{hive=\"0\"}"), 1.0);
  EXPECT_NE(text.find("# TYPE beehive_e2e_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("beehive_e2e_latency_us_bucket"), std::string::npos);
  // Channel totals ride along as pull-gauges with counter semantics.
  EXPECT_NE(text.find("# TYPE beehive_channel_bytes_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("beehive_channel_messages_total"), std::string::npos);
}

TEST(ClusterIntrospection, MetricsCanBeDisabled) {
  AppSet apps;
  apps.emplace<CounterApp>();
  ClusterConfig config;
  config.n_hives = 1;
  config.metrics = false;
  config.hive.metrics_period = 0;  // no timers: run_to_idle can drain
  SimCluster sim(config, apps);
  EXPECT_EQ(sim.metrics(), nullptr);
  sim.start();
  sim.hive(0).inject(
      MessageEnvelope::make(Incr{"k", 1}, 0, kNoBee, 0, sim.now()));
  sim.run_to_idle();  // still runs fine without a registry
}

// ---------------------------------------------------------------------------
// StatusApp: the report assembled from the status bee's store
// ---------------------------------------------------------------------------

TEST(ClusterIntrospection, StatusReportHasPerHiveAndPerBeeRows) {
  AppSet apps;
  apps.emplace<CounterApp>();
  apps.emplace<StatusApp>();

  ClusterConfig config;
  config.n_hives = 3;
  config.hive.metrics_period = kSecond;
  config.hive.timers_until = 4 * kSecond;
  SimCluster sim(config, apps);
  sim.start();

  // Spread traffic over several reporting windows so the rate rings fill.
  for (int i = 0; i < 9; ++i) {
    const HiveId h = static_cast<HiveId>(i % 3);
    sim.hive(h).inject(MessageEnvelope::make(
        Incr{"k" + std::to_string(i % 3), 1}, 0, kNoBee, h, sim.now()));
    sim.run_for(300 * kMillisecond);
  }
  // Mark a hive suspected (normally the failure detector's job).
  sim.hive(0).inject(MessageEnvelope::make(HiveSuspected{2, sim.now()}, 0,
                                           kNoBee, 0, sim.now()));
  sim.run_until(3500 * kMillisecond);

  const AppId status_app = apps.find_by_name("platform.status")->id();
  std::optional<StatusReport> report;
  for (const BeeRecord& rec : sim.registry().live_bees()) {
    if (rec.app != status_app) continue;
    Bee* bee = sim.hive(rec.hive).find_bee(rec.id);
    ASSERT_NE(bee, nullptr);
    report = StatusApp::report_from_store(bee->store(), sim.now());
  }
  ASSERT_TRUE(report.has_value()) << "no status bee";

  EXPECT_GT(report->at, 0);
  ASSERT_EQ(report->hives.size(), 3u);

  double windowed_msgs = 0.0;
  for (const HiveStatus& hs : report->hives) {
    EXPECT_GT(hs.at, 0);
    EXPECT_GE(hs.signals.bees, 1.0);  // at least the platform bees
    EXPECT_GE(hs.msgs_window.size(), 1u);  // rate ring populated
    for (const auto& s : hs.msgs_window.snapshot()) windowed_msgs += s.value;
  }
  EXPECT_GT(windowed_msgs, 0.0) << "windowed rates never folded";

  // Per-bee rows: queue depths are reported and the counter bees saw
  // traffic in at least one window.
  ASSERT_FALSE(report->bees.empty());
  const AppId counter_app = apps.find_by_name("test.counter")->id();
  double counter_msgs = 0.0;
  for (const BeeStatus& bs : report->bees) {
    EXPECT_EQ(bs.queue_depth, 0u);  // everything drained at report time
    if (bs.app != counter_app) continue;
    for (const auto& s : bs.msgs_window.snapshot()) counter_msgs += s.value;
  }
  EXPECT_GT(counter_msgs, 0.0) << "counter bees' windows stayed empty";

  // The injected suspicion is visible both as a set and per-row.
  ASSERT_EQ(report->suspected.size(), 1u);
  EXPECT_EQ(report->suspected[0], 2u);
  for (const HiveStatus& hs : report->hives) {
    EXPECT_EQ(hs.suspected, hs.hive == 2u);
  }

  // The JSON rendering used by /status.json carries the same rows.
  const std::string js = report->to_json();
  EXPECT_NE(js.find("\"hives\": ["), std::string::npos);
  EXPECT_NE(js.find("\"queue_depth\": 0"), std::string::npos);
  EXPECT_NE(js.find("\"suspected\": true"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Decision log end-to-end: a greedy migration in a live cluster leaves an
// explained trail in the collector's store, the trace stream and the
// flight recorder.
// ---------------------------------------------------------------------------

TEST(ClusterIntrospection, DecisionLogExplainsGreedyMigration) {
  struct SourceApp : App {
    SourceApp() : App("test.source", /*pinned=*/true) {
      every_foreach(kSecond / 2, "src",
                    [](AppContext& ctx, const MessageEnvelope&) {
                      for (int i = 0; i < 4; ++i) {
                        ctx.emit(Incr{"hot", 1});
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
  apps.emplace<CounterApp>();
  apps.emplace<SourceApp>();
  apps.emplace<CollectorApp>(
      std::make_shared<GreedyFollowSources>(
          GreedyConfig{.majority_fraction = 0.5, .min_messages = 4}),
      3, CollectorConfig{.optimize_period = 2 * kSecond});

  ClusterConfig config;
  config.n_hives = 3;
  config.hive.metrics_period = kSecond;
  config.hive.timers_until = 12 * kSecond;
  config.tracing = true;
  config.flight_recorder = true;
  SimCluster sim(config, apps);
  sim.start();

  // Seed: the counter bee lands on hive 0; the source bee on hive 2.
  sim.hive(0).inject(MessageEnvelope::make(Incr{"hot", 1}, 0, kNoBee, 0, 0));
  sim.hive(2).inject(MessageEnvelope::make(Incr{"seed", 1}, 0, kNoBee, 2, 0));
  sim.run_until(12 * kSecond);
  sim.run_to_idle();

  // The migration actually happened…
  const AppId counter = apps.find_by_name("test.counter")->id();
  for (const BeeRecord& rec : sim.registry().live_bees()) {
    if (rec.app == counter) {
      EXPECT_EQ(rec.hive, 2u);
    }
  }

  // …and the decision log explains it. Find the collector bee's store.
  const AppId collector = apps.find_by_name("platform.collector")->id();
  const StateStore* store = nullptr;
  for (const BeeRecord& rec : sim.registry().live_bees()) {
    if (rec.app != collector) continue;
    store = &sim.hive(rec.hive).find_bee(rec.id)->store();
  }
  ASSERT_NE(store, nullptr);

  auto rounds = CollectorApp::decisions_from_store(*store);
  ASSERT_FALSE(rounds.empty());
  EXPECT_LE(rounds.size(), CollectorApp::kDecisionRoundsKept);
  bool explained = false;
  for (const PlacementRound& round : rounds) {
    EXPECT_EQ(round.strategy, "greedy");
    for (const PlacementDecision& d : round.decisions) {
      if (!d.accepted) continue;
      explained = true;
      EXPECT_EQ(d.to, 2u);
      EXPECT_EQ(d.reason, "majority");
      EXPECT_GE(d.score, 0.5);
      EXPECT_GE(d.msgs_from_target * 2, d.msgs_total);
      EXPECT_FALSE(d.inbound.empty());
    }
  }
  EXPECT_TRUE(explained) << "no accepted decision recorded for the migration";

  // The same decisions show up as trace spans…
  bool decision_span = false;
  for (const TraceEvent& e : sim.trace_events()) {
    if (e.kind != SpanKind::kDecision) continue;
    decision_span = true;
    if (e.aux2 == 1) {
      EXPECT_EQ(e.aux, 2u);  // accepted move targeted hive 2
    }
  }
  EXPECT_TRUE(decision_span);

  // …and in the flight recorder's per-hive ring.
  ASSERT_NE(sim.flight_recorder(), nullptr);
  const std::string flight = sim.flight_recorder()->render("test dump");
  EXPECT_NE(flight.find("test dump"), std::string::npos);
  EXPECT_NE(flight.find("decision bee="), std::string::npos);
  EXPECT_NE(flight.find("accepted reason=majority"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, RingsAreBoundedAndRenderOldestFirst) {
  FlightRecorder fr(/*lines_per_hive=*/4);
  for (int i = 0; i < 10; ++i) {
    fr.note(1, "line-" + std::to_string(i));
  }
  fr.note(2, "other-hive");
  EXPECT_EQ(fr.line_count(1), 4u);
  EXPECT_EQ(fr.line_count(2), 1u);
  EXPECT_EQ(fr.line_count(9), 0u);

  const std::string text = fr.render("why not");
  EXPECT_NE(text.find("why not"), std::string::npos);
  EXPECT_EQ(text.find("line-5"), std::string::npos);  // evicted
  const std::size_t p6 = text.find("line-6");  // oldest retained
  const std::size_t p9 = text.find("line-9");
  ASSERT_NE(p6, std::string::npos);
  ASSERT_NE(p9, std::string::npos);
  EXPECT_LT(p6, p9);
  EXPECT_NE(text.find("other-hive"), std::string::npos);
}

TEST(FlightRecorderTest, DumpWritesReadableFile) {
  FlightRecorder fr;
  fr.note(0, "before-the-crash");
  const std::string path =
      ::testing::TempDir() + "/beehive_flight_dump_test.txt";
  ASSERT_TRUE(fr.dump(path, "unit test"));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("unit test"), std::string::npos);
  EXPECT_NE(ss.str().find("before-the-crash"), std::string::npos);
  EXPECT_FALSE(fr.dump("/nonexistent-dir/x/y.txt", "io error"));
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, EveryHiveGetsItsOwnRing) {
  FlightRecorder fr(/*lines_per_hive=*/4);
  for (HiveId h = 0; h < 100; ++h) {
    fr.note(h, "note-from-" + std::to_string(h));
  }
  for (HiveId h = 0; h < 100; ++h) {
    EXPECT_EQ(fr.line_count(h), 1u) << "hive " << h;
  }
  const std::string text = fr.render("hundred hives");
  EXPECT_NE(text.find("--- hive 70 (1 lines) ---\nnote-from-70\n"),
            std::string::npos);
  EXPECT_NE(text.find("--- hive 0 (1 lines) ---\nnote-from-0\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Logger sink plumbing
// ---------------------------------------------------------------------------

TEST(LoggerTest, PluggableSinkCapturesAndRestores) {
  std::vector<std::string> captured;
  Logger::instance().set_sink([&captured](LogLevel level,
                                          const std::string& line) {
    captured.push_back(std::to_string(static_cast<int>(level)) + ":" + line);
  });
  Logger::instance().set_level(LogLevel::kInfo);
  BH_INFO << "sink-capture-test";
  BH_DEBUG << "below-threshold";  // must be filtered before the sink
  Logger::instance().set_level(LogLevel::kWarn);
  Logger::instance().set_sink({});

  ASSERT_EQ(captured.size(), 1u);
  EXPECT_NE(captured[0].find("sink-capture-test"), std::string::npos);
  EXPECT_EQ(captured[0].find("below-threshold"), std::string::npos);

  // After restore, logging must not reach the old sink.
  BH_WARN << "after-restore";
  EXPECT_EQ(captured.size(), 1u);
}

// ---------------------------------------------------------------------------
// HTTP exposition endpoint
// ---------------------------------------------------------------------------

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\nHost: test\r\n\r\n";
  (void)::send(fd, req.data(), req.size(), 0);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(HttpExport, ServesMetricsStatusJsonAndNotFound) {
  MetricsRegistry reg;
  Counter up;
  up.bump();
  reg.expose_counter("beehive_up", {}, &up, "Always 1");
  HttpExportServer server(reg, /*port=*/0);  // ephemeral
  ASSERT_NE(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_EQ(metrics.rfind("HTTP/1.0 200", 0), 0u) << metrics;
  EXPECT_NE(metrics.find("# TYPE beehive_up counter"), std::string::npos);
  EXPECT_NE(metrics.find("beehive_up 1"), std::string::npos);

  // /status.json has one producer, the status source.
  server.set_status_source([] { return std::string("{\"custom\": true}\n"); });
  const std::string custom = http_get(server.port(), "/status.json");
  EXPECT_EQ(custom.rfind("HTTP/1.0 200", 0), 0u);
  EXPECT_NE(custom.find("\"custom\": true"), std::string::npos);

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_EQ(missing.rfind("HTTP/1.0 404", 0), 0u);

  EXPECT_EQ(server.requests_served(), 3u);
  server.stop();
}

TEST(HttpExport, HealthEndpointServesSourceOr503) {
  MetricsRegistry reg;
  HttpExportServer server(reg, /*port=*/0);

  // Each JSON path has exactly one producer, its source: unset, the route
  // exists but answers 503 (not 404, and not a registry fallback).
  using Setter = void (HttpExportServer::*)(std::function<std::string()>);
  const struct {
    const char* path;
    Setter set;
  } endpoints[] = {
      {"/health.json", &HttpExportServer::set_health_source},
      {"/status.json", &HttpExportServer::set_status_source},
  };
  for (const auto& ep : endpoints) {
    const std::string before = http_get(server.port(), ep.path);
    EXPECT_EQ(before.rfind("HTTP/1.0 503", 0), 0u) << ep.path << before;

    (server.*ep.set)([] { return std::string("{\"min_score\": 97.5}\n"); });
    const std::string after = http_get(server.port(), ep.path);
    EXPECT_EQ(after.rfind("HTTP/1.0 200", 0), 0u) << ep.path;
    EXPECT_NE(after.find("\"min_score\": 97.5"), std::string::npos)
        << ep.path;
  }

  // The index advertises all three endpoints.
  const std::string index = http_get(server.port(), "/");
  EXPECT_NE(index.find("/metrics"), std::string::npos);
  EXPECT_NE(index.find("/status.json"), std::string::npos);
  EXPECT_NE(index.find("/health.json"), std::string::npos);
  server.stop();
}

TEST(HttpExport, LateScrapeAfterDetachGets503NotDestroyedRegistry) {
  // Regression: a scraper arriving while (or after) the cluster behind the
  // endpoint is torn down must get a clean 503 — never a read of the
  // destroyed registry. The registry dies *before* the server here, which
  // is exactly the ordering detach() exists for.
  Counter up;
  up.bump();
  auto registry = std::make_unique<MetricsRegistry>();
  registry->expose_counter("beehive_up", {}, &up, "Always 1");
  HttpExportServer server(*registry, /*port=*/0);
  const std::uint16_t port = server.port();

  // Scrapers hammering every endpoint while the teardown races them.
  std::atomic<bool> scraping{true};
  std::atomic<std::uint64_t> bad_responses{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&, t] {
      const char* paths[] = {"/metrics", "/status.json", "/health.json"};
      while (scraping.load(std::memory_order_relaxed)) {
        const std::string resp = http_get(port, paths[t % 3]);
        // Empty = connection refused/reset (fine once stopped); otherwise
        // only 200 (pre-detach) or 503 (post-detach) are acceptable.
        if (!resp.empty() && resp.rfind("HTTP/1.0 200", 0) != 0 &&
            resp.rfind("HTTP/1.0 503", 0) != 0) {
          bad_responses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Let the scrapers land a few pre-detach hits, then tear down the
  // "cluster": detach first, destroy the registry after.
  while (server.requests_served() < 8) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.detach();
  registry.reset();  // the server must never touch it again

  // The late scraper: a fresh request strictly after destruction.
  const std::string late = http_get(port, "/metrics");
  EXPECT_EQ(late.rfind("HTTP/1.0 503", 0), 0u) << late;
  const std::string late_health = http_get(port, "/health.json");
  EXPECT_EQ(late_health.rfind("HTTP/1.0 503", 0), 0u);
  const std::string late_status = http_get(port, "/status.json");
  EXPECT_EQ(late_status.rfind("HTTP/1.0 503", 0), 0u);

  scraping.store(false, std::memory_order_relaxed);
  for (std::thread& t : scrapers) t.join();
  EXPECT_EQ(bad_responses.load(), 0u);
  server.stop();
}

TEST(HttpExport, DetachWaitsForARequestInsideASource) {
  // Once detach() returns, the owner may destroy the registry and whatever
  // a source reads. So detach() must wait out a request that is still
  // running a source: here a /status.json request parks inside its source
  // on a latch while detach() is called.
  MetricsRegistry registry;
  HttpExportServer server(registry, /*port=*/0);
  std::latch entered(1);
  std::latch release(1);
  std::atomic<bool> source_returned{false};
  server.set_status_source([&] {
    entered.count_down();
    release.wait();
    source_returned.store(true);
    return std::string("{}\n");
  });

  std::string response;
  std::thread client(
      [&] { response = http_get(server.port(), "/status.json"); });
  entered.wait();

  std::atomic<bool> returned_after_source{false};
  std::future<void> detached = std::async(std::launch::async, [&] {
    server.detach();
    returned_after_source.store(source_returned.load());
  });
  // A detach() that does not wait returns within this pause.
  detached.wait_for(std::chrono::milliseconds(50));
  release.count_down();
  detached.get();
  client.join();

  EXPECT_TRUE(returned_after_source.load())
      << "detach() returned while a request was inside the status source";
  EXPECT_EQ(response.rfind("HTTP/1.0 200", 0), 0u) << response;
  const std::string late = http_get(server.port(), "/status.json");
  EXPECT_EQ(late.rfind("HTTP/1.0 503", 0), 0u) << late;
  server.stop();
}

// ---------------------------------------------------------------------------
// Prometheus HELP/TYPE contract
// ---------------------------------------------------------------------------

TEST(PrometheusText, EveryFamilyGetsHelpAndTypeHeaders) {
  MetricsRegistry reg;
  Counter with_help;
  Counter series0;
  Counter series1;
  HistogramMetric hist;
  with_help.bump();
  record(hist, 5);
  reg.expose_counter("with_help", {}, &with_help, "Documented counter.");
  reg.gauge_fn("without_help", {}, [] { return 1.0; });  // no description
  reg.expose_counter("second_series_help", {{"hive", "0"}},
                     &series0);  // first: helpless
  reg.expose_counter("second_series_help", {{"hive", "1"}}, &series1,
                     "Help on a later series.");
  reg.expose_histogram("hist_no_help", {}, &hist);

  const std::string text = reg.prometheus_text();

  // Round-trip check: walk the exposition line by line — every family's
  // first appearance must be its # HELP line, immediately followed by
  // # TYPE, then only samples of that family until the next family.
  std::istringstream in(text);
  std::string line;
  std::string pending_help_family;
  std::set<std::string> helped, typed;
  while (std::getline(in, line)) {
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string family =
          line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(pending_help_family.empty())
          << "HELP for " << family << " not followed by TYPE";
      pending_help_family = family;
      helped.insert(family);
    } else if (line.rfind("# TYPE ", 0) == 0) {
      const std::string family = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_EQ(family, pending_help_family)
          << "TYPE without a preceding HELP for the same family";
      pending_help_family.clear();
      typed.insert(family);
    }
  }
  EXPECT_EQ(helped, typed) << "every family must carry both headers";
  for (const char* family :
       {"with_help", "without_help", "second_series_help", "hist_no_help"}) {
    EXPECT_TRUE(helped.contains(family)) << family << " missing HELP";
  }

  EXPECT_NE(text.find("# HELP with_help Documented counter."),
            std::string::npos);
  // A family whose only help lives on a later series still gets it.
  EXPECT_NE(text.find("# HELP second_series_help Help on a later series."),
            std::string::npos);
  // Helpless families get the explicit placeholder, never a bare TYPE.
  EXPECT_NE(text.find("# HELP without_help (no description registered)"),
            std::string::npos);
}

TEST(PrometheusText, HelpTextEscapesBackslashAndNewline) {
  MetricsRegistry reg;
  Counter tricky;
  reg.expose_counter("tricky", {}, &tricky, "line one\nline two \\ backslash");
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# HELP tricky line one\\nline two \\\\ backslash"),
            std::string::npos)
      << text;
  // The raw newline must not have split the HELP line.
  EXPECT_EQ(text.find("# HELP tricky line one\nline"), std::string::npos);
}

}  // namespace
}  // namespace beehive
