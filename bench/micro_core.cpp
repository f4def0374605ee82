// Microbenchmarks of the platform's hot paths: codec throughput, state
// transactions, state snapshots (the unit of migration cost), metrics
// cells, and dispatch cost as the cell population grows. Per-message
// dispatch on the local and remote routes is timed by micro_dispatch.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/messages.h"
#include "apps/te_common.h"
#include "bench/bench_json.h"
#include "cluster/sim.h"
#include "instrument/registry.h"
#include "instrument/status_app.h"
#include "state/txn.h"
#include "tests/test_helpers.h"

namespace beehive {
namespace {

using testing::CounterApp;
using testing::I64;
using testing::Incr;

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

void BM_CodecEncodeFlowStatReply(benchmark::State& state) {
  FlowStatReply reply;
  reply.sw = 7;
  reply.stats.resize(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < reply.stats.size(); ++i) {
    reply.stats[i] = {static_cast<std::uint32_t>(i), 123.4, 1 << 20};
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    Bytes b = encode_to_bytes(reply);
    bytes += b.size();
    benchmark::DoNotOptimize(b);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CodecEncodeFlowStatReply)->Arg(10)->Arg(100)->Arg(1000);

void BM_CodecDecodeFlowStatReply(benchmark::State& state) {
  FlowStatReply reply;
  reply.sw = 7;
  reply.stats.resize(static_cast<std::size_t>(state.range(0)));
  Bytes wire = encode_to_bytes(reply);
  std::size_t bytes = 0;
  for (auto _ : state) {
    FlowStatReply back = decode_from_bytes<FlowStatReply>(wire);
    bytes += wire.size();
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CodecDecodeFlowStatReply)->Arg(10)->Arg(100)->Arg(1000);

void BM_EnvelopeWireRoundTrip(benchmark::State& state) {
  auto env = MessageEnvelope::make(Incr{"some-counter-key", 42});
  for (auto _ : state) {
    MessageEnvelope back = MessageEnvelope::from_wire(env.to_wire());
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_EnvelopeWireRoundTrip);

// ---------------------------------------------------------------------------
// State transactions
// ---------------------------------------------------------------------------

void BM_TxnPutCommit(benchmark::State& state) {
  StateStore store;
  std::int64_t i = 0;
  for (auto _ : state) {
    Txn txn(store, AccessPolicy::all());
    txn.put_as("d", "key", I64{i++});
    txn.commit();
  }
}
BENCHMARK(BM_TxnPutCommit);

void BM_TxnRollback(benchmark::State& state) {
  StateStore store;
  store.dict("d").put_as("key", I64{1});
  for (auto _ : state) {
    Txn txn(store, AccessPolicy::all());
    txn.put_as("d", "key", I64{2});
    txn.rollback();
  }
}
BENCHMARK(BM_TxnRollback);

void BM_StateSnapshot(benchmark::State& state) {
  StateStore store;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    FlowSeriesEntry entry;
    entry.sw = static_cast<SwitchId>(i);
    entry.latest.resize(100);
    store.dict("S").put_as(std::to_string(i), entry);
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    Bytes snap = store.snapshot();
    bytes += snap.size();
    benchmark::DoNotOptimize(snap);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_StateSnapshot)->Arg(1)->Arg(10)->Arg(100);

void BM_HistogramRecord(benchmark::State& state) {
  LatencyHistogram h;
  Duration v = 1;
  for (auto _ : state) {
    h.record(v);
    v = (v * 2654435761u + 1) & ((1 << 22) - 1);  // cheap value spread
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramRecord);

// ---------------------------------------------------------------------------
// Metrics hot paths: the scrape-safe cells hives update per message, and
// the StatusApp's per-window rate ring. All must stay O(1) and
// allocation-free.
// ---------------------------------------------------------------------------

void BM_MetricsCounterBump(benchmark::State& state) {
  // A hive-owned cell exposed live, bumped by its one writer.
  MetricsRegistry reg;
  Counter c;
  reg.expose_counter("bench_counter", {{"hive", "0"}}, &c);
  for (auto _ : state) {
    c.bump();
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsCounterBump);

void BM_MetricsHistogramBumpAt(benchmark::State& state) {
  // The hive's record: bucket index computed once, then a single-writer
  // bump of the exposed cell.
  MetricsRegistry reg;
  HistogramMetric h;
  reg.expose_histogram("bench_hist", {{"hive", "0"}}, &h);
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.bump_at(LatencyHistogram::index(v), v);
    v = (v * 2654435761u + 1) & ((1 << 22) - 1);
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsHistogramBumpAt);

void BM_TimeSeriesRingPush(benchmark::State& state) {
  TimeSeriesRing ring;
  TimePoint t = 0;
  for (auto _ : state) {
    ring.push(t, 1.0);
    t += kSecond;
    benchmark::DoNotOptimize(ring);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimeSeriesRingPush);

void BM_PrometheusScrape(benchmark::State& state) {
  // Cost of rendering one exposition page for a mid-size cluster's worth
  // of series (scrape side, off the hive hot path).
  MetricsRegistry reg;
  const auto hives = static_cast<std::size_t>(state.range(0));
  std::vector<Counter> counters(hives);
  std::vector<HistogramMetric> e2e(hives);
  for (std::size_t h = 0; h < hives; ++h) {
    MetricLabels labels{{"hive", std::to_string(h)}};
    counters[h].bump(h * 1000);
    reg.expose_counter("beehive_messages_total", labels, &counters[h]);
    reg.gauge_fn("beehive_queue_depth", labels,
                 [h] { return static_cast<double>(h); });
    e2e[h].bump_at(LatencyHistogram::index(200), 200);
    reg.expose_histogram("beehive_e2e_latency_us", labels, &e2e[h]);
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string page = reg.prometheus_text();
    bytes += page.size();
    benchmark::DoNotOptimize(page);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_PrometheusScrape)->Arg(4)->Arg(40);

// ---------------------------------------------------------------------------
// Dispatch on a live 4-hive cluster as the cell population grows
// ---------------------------------------------------------------------------

void BM_DispatchFanout(benchmark::State& state) {
  // Cost of one injected message as the number of distinct cells grows:
  // routing stays O(1) per message regardless of cell population.
  AppSet apps;
  apps.emplace<CounterApp>();
  ClusterConfig config;
  config.n_hives = 4;
  config.hive.metrics_period = 0;
  SimCluster sim(config, apps);
  sim.start();
  const auto keys = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < keys; ++i) {
    sim.hive(i % 4).inject(MessageEnvelope::make(
        Incr{"k" + std::to_string(i), 1}, 0, kNoBee,
        static_cast<HiveId>(i % 4), sim.now()));
  }
  sim.run_to_idle();
  std::uint64_t n = 0;
  for (auto _ : state) {
    sim.hive(0).inject(MessageEnvelope::make(
        Incr{"k" + std::to_string(n % keys), 1}, 0, kNoBee, 0, sim.now()));
    sim.run_to_idle();
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DispatchFanout)->Arg(16)->Arg(256)->Arg(4096);

// ---------------------------------------------------------------------------
// Latency probe: a small 2-hive workload with tracing on, reporting the
// platform's own histogram percentiles (virtual-clock microseconds).
// ---------------------------------------------------------------------------

void run_latency_probe(const std::string& json_path) {
  AppSet apps;
  apps.emplace<CounterApp>();
  ClusterConfig config;
  config.n_hives = 2;
  config.hive.metrics_period = 0;
  config.tracing = true;
  SimCluster sim(config, apps);
  sim.start();
  // Odd key modulus vs. alternating ingress hive: roughly half the
  // messages land on the other hive's bee and cross the wire, so the
  // distribution mixes instant local hops with 200us channel hops.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const HiveId at = static_cast<HiveId>(i % 2);
    sim.hive(at).inject(MessageEnvelope::make(
        Incr{"k" + std::to_string(i % 7), 1}, 0, kNoBee, at, sim.now()));
    sim.run_for(100 * kMicrosecond);
  }
  sim.run_to_idle();

  LatencyHistogram queue, handler, e2e;
  for (HiveId h = 0; h < 2; ++h) {
    queue.merge(sim.hive(h).queue_latency());
    handler.merge(sim.hive(h).handler_latency());
    e2e.merge(sim.hive(h).e2e_latency());
  }
  std::printf(
      "\nlatency probe (2 hives, 1000 msgs, sim us): "
      "queue p50=%llu p99=%llu | handler p50=%llu p99=%llu | "
      "e2e p50=%llu p99=%llu (n=%llu)\n",
      static_cast<unsigned long long>(queue.p50()),
      static_cast<unsigned long long>(queue.p99()),
      static_cast<unsigned long long>(handler.p50()),
      static_cast<unsigned long long>(handler.p99()),
      static_cast<unsigned long long>(e2e.p50()),
      static_cast<unsigned long long>(e2e.p99()),
      static_cast<unsigned long long>(e2e.count()));

  if (json_path.empty()) return;
  const double seconds =
      static_cast<double>(sim.now()) / static_cast<double>(kSecond);
  bench::JsonReport report("micro_core");
  const std::string s = "latency_probe";
  report.number(s, "throughput_msgs_per_s",
                seconds == 0.0
                    ? 0.0
                    : static_cast<double>(e2e.count()) / seconds);
  report.integer(s, "e2e_count", e2e.count());
  report.integer(s, "e2e_p50_us", e2e.p50());
  report.integer(s, "e2e_p99_us", e2e.p99());
  report.integer(s, "queue_p50_us", queue.p50());
  report.integer(s, "queue_p99_us", queue.p99());
  report.integer(s, "wire_bytes", sim.meter().total_bytes());
  report.integer(s, "wire_messages", sim.meter().total_messages());
  if (report.write_file(json_path)) {
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "warning: failed to write %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace beehive

int main(int argc, char** argv) {
  // Strip our own --json flag before google-benchmark sees the arguments.
  std::string json_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  beehive::run_latency_probe(json_path);
  return 0;
}
