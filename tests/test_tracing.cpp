// Tests for the tracing + latency subsystem: trace propagation on the
// envelope wire format, the log-bucketed histogram, span recording across
// a multi-hive simulation, the Chrome trace-event exporter and the
// /status.json document's string escaping.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cluster/sim.h"
#include "instrument/collector.h"
#include "instrument/histogram.h"
#include "instrument/metrics.h"
#include "instrument/status_app.h"
#include "instrument/trace.h"
#include "msg/message.h"
#include "tests/test_helpers.h"

namespace beehive {
namespace {

using testing::CounterApp;
using testing::CounterQuery;
using testing::CounterValue;
using testing::Incr;
using testing::SinkApp;

// ---------------------------------------------------------------------------
// Envelope trace fields on the wire
// ---------------------------------------------------------------------------

TEST(EnvelopeTrace, FieldsSurviveWireRoundTrip) {
  auto env = MessageEnvelope::make(Incr{"k", 1}, 7, make_bee_id(2, 5), 2,
                                   123 * kMicrosecond);
  env.set_trace(0xABCDEF0123456789ull, 4, 99 * kMicrosecond);
  MessageEnvelope back = MessageEnvelope::from_wire(env.to_wire());
  EXPECT_EQ(back.trace_id(), 0xABCDEF0123456789ull);
  EXPECT_EQ(back.causal_depth(), 4u);
  EXPECT_EQ(back.trace_root_at(), 99 * kMicrosecond);
  EXPECT_EQ(back.as<Incr>().key, "k");
}

TEST(EnvelopeTrace, InheritTraceDeepensByOne) {
  auto cause = MessageEnvelope::make(Incr{"k", 1});
  cause.set_trace(42, 3, 1000);
  auto effect = MessageEnvelope::make(CounterValue{"k", 1});
  effect.inherit_trace(cause);
  EXPECT_EQ(effect.trace_id(), 42u);
  EXPECT_EQ(effect.causal_depth(), 4u);
  EXPECT_EQ(effect.trace_root_at(), 1000);
}

TEST(EnvelopeTrace, HeaderBytesMatchesSerializedSize) {
  // The fixed header constant must track the actual serialized layout:
  // fixed fields, then the payload behind its length varint.
  const CounterQuery empty{""};
  const std::size_t empty_len = encode_to_bytes(empty).size();
  ASSERT_EQ(empty_len, 1u);  // one length-prefix byte for the empty key
  EXPECT_EQ(MessageEnvelope::make(empty).to_wire().size(),
            MessageEnvelope::kFixedHeaderBytes + 1 + empty_len);

  // A payload in [128, 16384) takes a 2-byte length varint.
  const Incr big{std::string(300, 'x'), 1};
  const std::size_t big_len = encode_to_bytes(big).size();
  ASSERT_GE(big_len, 128u);
  ASSERT_LT(big_len, 16384u);
  EXPECT_EQ(MessageEnvelope::make(big).to_wire().size(),
            MessageEnvelope::kFixedHeaderBytes + 2 + big_len);
}

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, ExactBelowSixteen) {
  LatencyHistogram h;
  for (int i = 0; i < 16; ++i) h.record(i);
  EXPECT_EQ(h.count(), 16u);
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(LatencyHistogram::index(i), i);
    EXPECT_EQ(LatencyHistogram::bucket_mid(i), i);
  }
}

TEST(LatencyHistogram, PercentilesOnKnownDistribution) {
  LatencyHistogram h;
  // 100 samples: 90 at 10us, 10 at 1000us.
  for (int i = 0; i < 90; ++i) h.record(10);
  for (int i = 0; i < 10; ++i) h.record(1000);
  EXPECT_EQ(h.p50(), 10u);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.max(), 1000u);
  // p99 lands in 1000's bucket; log-bucketing error is bounded by 1/32.
  EXPECT_NEAR(static_cast<double>(h.p99()), 1000.0, 1000.0 / 16.0);
  EXPECT_NEAR(h.mean(), (90 * 10 + 10 * 1000) / 100.0, 1.0);
}

TEST(LatencyHistogram, RelativeErrorBounded) {
  for (std::uint64_t v : {17ull, 1000ull, 123456ull, 9999999ull}) {
    LatencyHistogram h;
    h.record(static_cast<Duration>(v));
    const double mid = static_cast<double>(h.percentile(1.0));
    EXPECT_LE(std::abs(mid - static_cast<double>(v)),
              static_cast<double>(v) / 16.0)
        << "value " << v;
  }
}

TEST(LatencyHistogram, NegativeAndHugeValuesClamp) {
  LatencyHistogram h;
  h.record(-5);
  h.record(static_cast<Duration>(1) << 60);  // far beyond the top bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_GT(h.percentile(1.0), 1u << 30);
}

TEST(LatencyHistogram, MergeAddsDistributions) {
  LatencyHistogram a, b;
  for (int i = 0; i < 50; ++i) a.record(10);
  for (int i = 0; i < 50; ++i) b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(a.p50(), 10u);
  EXPECT_GT(a.p90(), 900u);
}

TEST(LatencyHistogram, CodecRoundTripIsExact) {
  LatencyHistogram h;
  for (Duration v : {0, 1, 15, 16, 17, 1000, 123456, 1 << 30}) h.record(v);
  auto back = decode_from_bytes<LatencyHistogram>(encode_to_bytes(h));
  EXPECT_EQ(back, h);
  EXPECT_EQ(back.count(), h.count());
  EXPECT_EQ(back.p99(), h.p99());
}

TEST(LatencyHistogram, EmptyEncodesSmall) {
  LatencyHistogram h;
  EXPECT_LE(encode_to_bytes(h).size(), 3u);  // sum, max, zero buckets
  auto back = decode_from_bytes<LatencyHistogram>(encode_to_bytes(h));
  EXPECT_EQ(back.count(), 0u);
  EXPECT_EQ(back.p99(), 0u);
}

// ---------------------------------------------------------------------------
// Extended metrics codecs
// ---------------------------------------------------------------------------

TEST(MetricsCodec, SampleCarriesInvocationsAndLatency) {
  BeeMetricsSample s;
  s.bee = make_bee_id(1, 2);
  s.handler_p99_us = 7;
  auto back = decode_from_bytes<BeeMetricsSample>(encode_to_bytes(s));
  EXPECT_EQ(back.handler_p99_us, 7u);
}

TEST(MetricsCodec, ReportCarriesE2eHistogram) {
  LocalMetricsReport r;
  r.hive = 4;
  r.e2e_latency.record(220);
  r.e2e_latency.record(440);
  r.bees.resize(2);
  r.bees[0].handler_p99_us = 11;
  auto back = decode_from_bytes<LocalMetricsReport>(encode_to_bytes(r));
  EXPECT_EQ(back.e2e_latency, r.e2e_latency);
  ASSERT_EQ(back.bees.size(), 2u);
  EXPECT_EQ(back.bees[0].handler_p99_us, 11u);
}

// ---------------------------------------------------------------------------
// Trace propagation across a 2-hive simulation
// ---------------------------------------------------------------------------

/// Drives a bee onto hive 0, then queries it from hive 1: the query
/// crosses the wire, its reply (CounterValue) crosses back to the sink.
SimCluster traced_two_hive_sim(const AppSet& apps) {
  ClusterConfig config;
  config.n_hives = 2;
  config.tracing = true;
  config.hive.metrics_period = 0;
  return SimCluster(config, apps);
}

TEST(TracePropagation, OneTraceSpansBothHives) {
  AppSet apps;
  apps.emplace<CounterApp>();
  apps.emplace<SinkApp>();
  SimCluster sim = traced_two_hive_sim(apps);
  sim.start();

  // Instantiate the counter bee on hive 0.
  sim.hive(0).inject(
      MessageEnvelope::make(Incr{"k", 5}, 0, kNoBee, 0, sim.now()));
  sim.run_to_idle();
  // Query from hive 1: message crosses to hive 0, reply fans back out.
  sim.hive(1).inject(
      MessageEnvelope::make(CounterQuery{"k"}, 0, kNoBee, 1, sim.now()));
  sim.run_to_idle();

  auto events = sim.trace_events();
  ASSERT_FALSE(events.empty());

  // Find the query's root: the ingress span on hive 1 for CounterQuery.
  std::uint64_t query_trace = 0;
  for (const TraceEvent& e : events) {
    if (e.kind == SpanKind::kIngress && e.hive == 1 &&
        e.type == msg_type_id<CounterQuery>()) {
      query_trace = e.trace_id;
    }
  }
  ASSERT_NE(query_trace, 0u);

  std::set<HiveId> hives_touched;
  std::uint32_t max_depth = 0;
  TimePoint prev_at = -1;
  bool depth_monotone = true;
  std::uint32_t prev_depth = 0;
  for (const TraceEvent& e : events) {
    if (e.trace_id != query_trace) continue;
    hives_touched.insert(e.hive);
    max_depth = std::max(max_depth, e.depth);
    // Along one trace, causal depth never decreases as (virtual) time
    // advances: each hop schedules strictly later.
    if (prev_at >= 0 && e.at > prev_at && e.depth < prev_depth) {
      depth_monotone = false;
    }
    prev_at = e.at;
    prev_depth = e.depth;
  }
  EXPECT_EQ(hives_touched.size(), 2u) << "trace must span both hives";
  EXPECT_GE(max_depth, 1u) << "the reply hop must deepen the trace";
  EXPECT_TRUE(depth_monotone);
}

TEST(TracePropagation, ChannelSpansArePaired) {
  AppSet apps;
  apps.emplace<CounterApp>();
  SimCluster sim = traced_two_hive_sim(apps);
  sim.start();
  sim.hive(0).inject(
      MessageEnvelope::make(Incr{"k", 1}, 0, kNoBee, 0, sim.now()));
  sim.run_to_idle();
  sim.hive(1).inject(
      MessageEnvelope::make(Incr{"k", 1}, 0, kNoBee, 1, sim.now()));
  sim.run_to_idle();

  std::set<std::uint64_t> sends, recvs;
  for (const TraceEvent& e : sim.trace_events()) {
    if (e.kind == SpanKind::kChannelSend) sends.insert(e.aux);
    if (e.kind == SpanKind::kChannelRecv) recvs.insert(e.aux);
  }
  ASSERT_FALSE(sends.empty()) << "remote injection must cross the channel";
  EXPECT_EQ(sends, recvs) << "every sent frame must be received";
}

TEST(TracePropagation, DisabledByDefaultRecordsNothing) {
  AppSet apps;
  apps.emplace<CounterApp>();
  ClusterConfig config;
  config.n_hives = 2;
  config.hive.metrics_period = 0;
  SimCluster sim(config, apps);
  sim.start();
  sim.hive(0).inject(
      MessageEnvelope::make(Incr{"k", 1}, 0, kNoBee, 0, sim.now()));
  sim.run_to_idle();
  EXPECT_EQ(sim.tracer(0), nullptr);
  EXPECT_TRUE(sim.trace_events().empty());
}

TEST(TracePropagation, DeterministicAcrossRuns) {
  auto run = [](bool tracing) {
    AppSet apps;
    apps.emplace<CounterApp>();
    apps.emplace<SinkApp>();
    ClusterConfig config;
    config.n_hives = 2;
    config.tracing = tracing;
    config.hive.metrics_period = 0;
    SimCluster sim(config, apps);
    sim.start();
    for (int i = 0; i < 20; ++i) {
      sim.hive(i % 2).inject(MessageEnvelope::make(
          Incr{"k" + std::to_string(i % 4), 1}, 0, kNoBee,
          static_cast<HiveId>(i % 2), sim.now()));
      sim.run_for(50 * kMicrosecond);
    }
    sim.hive(1).inject(
        MessageEnvelope::make(CounterQuery{"k0"}, 0, kNoBee, 1, sim.now()));
    sim.run_to_idle();
    struct Result {
      std::uint64_t handler_runs = 0;
      std::uint64_t wire_bytes = 0;
      std::size_t events = 0;
    } r;
    for (HiveId h = 0; h < 2; ++h) {
      r.handler_runs += sim.hive(h).counters().handler_runs;
    }
    r.wire_bytes = sim.meter().total_bytes();
    r.events = sim.trace_events().size();
    return std::make_tuple(r.handler_runs, r.wire_bytes, r.events);
  };

  auto traced1 = run(true);
  auto traced2 = run(true);
  auto untraced = run(false);
  EXPECT_EQ(traced1, traced2) << "tracing must be deterministic";
  // Tracing must not perturb the simulation itself.
  EXPECT_EQ(std::get<0>(traced1), std::get<0>(untraced));
  EXPECT_EQ(std::get<1>(traced1), std::get<1>(untraced));
}

// ---------------------------------------------------------------------------
// Hive-level latency accounting
// ---------------------------------------------------------------------------

TEST(LatencyAccounting, QueueAndE2eRecordedInSim) {
  AppSet apps;
  apps.emplace<CounterApp>();
  ClusterConfig config;
  config.n_hives = 1;
  config.hive.metrics_period = 0;
  SimCluster sim(config, apps);
  sim.start();
  for (int i = 0; i < 10; ++i) {
    sim.hive(0).inject(
        MessageEnvelope::make(Incr{"k", 1}, 0, kNoBee, 0, sim.now()));
  }
  sim.run_to_idle();
  // Incr handlers terminate their chains: each run is one e2e sample.
  EXPECT_EQ(sim.hive(0).e2e_latency().count(), 10u);
  EXPECT_EQ(sim.hive(0).queue_latency().count(), 10u);
  EXPECT_EQ(sim.hive(0).handler_latency().count(), 10u);
  // The bee's window histogram recorded the same runs.
  auto bees = sim.hive(0).local_bees();
  ASSERT_EQ(bees.size(), 1u);
  EXPECT_EQ(bees[0]->window().handler_latency.count(), 10u);
  // Simulator handlers are instantaneous.
  EXPECT_EQ(bees[0]->window().handler_latency.max(), 0u);
}

TEST(LatencyAccounting, CollectorAggregatesInvocations) {
  AppSet apps;
  apps.emplace<CounterApp>();
  apps.emplace<CollectorApp>(std::make_shared<NoopStrategy>(), 2);
  ClusterConfig config;
  config.n_hives = 2;
  config.hive.metrics_period = kSecond;
  config.hive.timers_until = 3 * kSecond;
  SimCluster sim(config, apps);
  sim.start();
  // Create the counter bees on hive 0 first...
  for (int k = 0; k < 2; ++k) {
    sim.hive(0).inject(MessageEnvelope::make(
        Incr{"k" + std::to_string(k), 1}, 0, kNoBee, 0, sim.now()));
  }
  sim.run_for(10 * kMillisecond);
  // ...then increment them from hive 1: each message crosses the channel,
  // so its end-to-end latency is at least one wire hop even in virtual
  // time (a message handled on its ingress hive completes instantly).
  for (int i = 0; i < 8; ++i) {
    sim.hive(1).inject(MessageEnvelope::make(
        Incr{"k" + std::to_string(i % 2), 1}, 0, kNoBee, 1, sim.now()));
  }
  sim.run_until(2 * kSecond + kMillisecond);

  AppId collector = apps.find_by_name("platform.collector")->id();
  Bee* collector_bee = nullptr;
  for (const BeeRecord& rec : sim.registry().live_bees()) {
    if (rec.app != collector) continue;
    collector_bee = sim.hive(rec.hive).find_bee(rec.id);
  }
  ASSERT_NE(collector_bee, nullptr);

  ClusterView view = CollectorApp::view_from_store(collector_bee->store(), 2);
  std::uint64_t msgs_in = 0;
  for (const BeeView& bee : view.bees) {
    msgs_in += bee.msgs_in;
  }
  EXPECT_GE(msgs_in, 8u) << "collector must see every Incr a bee received";
  // The latency itself lives in the hive that ran the handlers: remote
  // injections cross the registry and channel, so the tail of hive 0's
  // e2e distribution is strictly positive even in virtual time.
  EXPECT_GT(sim.hive(0).e2e_latency().count(), 0u);
  EXPECT_GT(sim.hive(0).e2e_latency().p99(), 0u);
}

// ---------------------------------------------------------------------------
// Chrome trace-event exporter
// ---------------------------------------------------------------------------

/// Minimal structural JSON check: balanced braces/brackets outside
/// strings, and the expected top-level shape.
bool json_balanced(const std::string& s) {
  int brace = 0, bracket = 0;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++brace; break;
      case '}': --brace; break;
      case '[': ++bracket; break;
      case ']': --bracket; break;
      default: break;
    }
    if (brace < 0 || bracket < 0) return false;
  }
  return brace == 0 && bracket == 0 && !in_string;
}

TEST(ChromeTraceExport, GoldenShape) {
  AppSet apps;
  apps.emplace<CounterApp>();
  apps.emplace<SinkApp>();
  SimCluster sim = traced_two_hive_sim(apps);
  sim.start();
  sim.hive(0).inject(
      MessageEnvelope::make(Incr{"k", 2}, 0, kNoBee, 0, sim.now()));
  sim.run_to_idle();
  sim.hive(1).inject(
      MessageEnvelope::make(CounterQuery{"k"}, 0, kNoBee, 1, sim.now()));
  sim.run_to_idle();

  std::string json = to_chrome_trace(sim.trace_events());
  EXPECT_TRUE(json_balanced(json));
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Metadata tracks for both hives and the synthetic channel process.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"hive 0\""), std::string::npos);
  EXPECT_NE(json.find("\"hive 1\""), std::string::npos);
  EXPECT_NE(json.find("control channel"), std::string::npos);
  // Complete spans for handlers, named after the message type.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("handle test.incr"), std::string::npos);
  EXPECT_NE(json.find("handle test.counter_query"), std::string::npos);
  // Channel transit spans carry the frame kind — since the egress overhaul
  // every wire unit is a batch container.
  EXPECT_NE(json.find("batch"), std::string::npos);
}

TEST(ChromeTraceExport, EmptyEventsStillValid) {
  std::string json = to_chrome_trace({});
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
}

// ---------------------------------------------------------------------------
// /status.json
// ---------------------------------------------------------------------------

TEST(StatusJson, AppNameIsEscaped) {
  // An app name is any string its author picked: a quote, a backslash or a
  // control character in it must not end the JSON string early.
  StatusReport report;
  BeeStatus bee;
  bee.bee = make_bee_id(0, 1);
  bee.app_name = std::string("a\"b\\c\x01", 6);
  report.bees.push_back(bee);
  const std::string json = report.to_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find(R"("app_name": "a\"b\\c\u0001")"), std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// Trace recorder ring
// ---------------------------------------------------------------------------

TEST(TraceRecorder, RingOverwritesOldest) {
  TraceRecorder rec(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    rec.record(TraceEvent{static_cast<TimePoint>(i), SpanKind::kIngress, 0,
                          i + 1, 0, kNoBee, 0, 0, 0, 0});
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest surviving event is #6 (0-based), in order.
  EXPECT_EQ(events.front().trace_id, 7u);
  EXPECT_EQ(events.back().trace_id, 10u);
}

TEST(TraceRecorder, DisabledRecordsNothing) {
  TraceRecorder rec(8);
  rec.set_enabled(false);
  rec.record(TraceEvent{0, SpanKind::kIngress, 0, 1, 0, kNoBee, 0, 0, 0, 0});
  EXPECT_EQ(rec.size(), 0u);
  rec.set_enabled(true);
  rec.record(TraceEvent{0, SpanKind::kIngress, 0, 1, 0, kNoBee, 0, 0, 0, 0});
  EXPECT_EQ(rec.size(), 1u);
}

}  // namespace
}  // namespace beehive
