// Dispatch fast-path microbenchmark.
//
// Measures the platform's per-message cost on the two steady-state routes
// of paper §3's "Life of a Message":
//   local  — a 1-hive cluster where every injected message maps to a cell
//            owned by a local bee (resolve + deliver + handler, no wire);
//   remote — a 2-hive cluster with placement pinned to hive 1 while the
//            driver injects on hive 0, so every message pays resolve +
//            envelope serialization + frame + delivery on the far side.
//
// Alongside wall-clock throughput it reports allocations per delivered
// message, counted by the shared replacement of global operator new
// (tests/alloc_counter.h). Results land in
// BENCH_dispatch.json so CI can archive and diff them across commits.
//
// Each route runs as a profiler-off / profiler-on A/B: `--reps` repetitions
// of each variant, interleaved (off, on, off, on, ...) so drift in machine
// load hits both sides equally, with the *median* rep reported per variant
// and the profiler's overhead as a percentage. The cost profiler's design
// budget is <3% on the local route (DESIGN.md §9); CI warns past that.
//
// A third local variant, `local_bounded`, runs the same route with overload
// control armed (bounded mailbox + transport credit window, DESIGN.md §10);
// its A/B against plain `local` is the cost of the credit/bound bookkeeping
// and must stay ≤3%. `--bounded` restricts the run to just that pair.
//
// A fourth pair, `local_spans` / `local_traced`, prices tracing (DESIGN.md
// §11): spans-only vs spans + the tail sampler at the default 20ms
// threshold. Local sim traffic never crosses the threshold, so the
// spans-vs-tail A/B isolates exactly the unsampled decision path
// (note_trace_end latency check, no retention) — budgeted ≤3% — while
// local-vs-spans reports the PR-1 span-recording cost (off by default).
// `--traced` restricts the run to just these.
//
// A fifth series, `local_batched`, drives the same route through
// Hive::inject_batch (batched handler activation, DESIGN.md §12) and is
// compared against `local` by the CI perf-smoke job.
//
// `--pin N` pins the benchmark to core N (Linux) so the numbers aren't
// blurred by the scheduler migrating the process mid-rep — the measurement
// analogue of HiveConfig::pin_cpu on the threaded runtime.
//
// Usage: micro_dispatch [--json PATH] [--messages N] [--reps N] [--bounded]
//                       [--traced] [--pin N]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "cluster/sim.h"
#include "tests/alloc_counter.h"
#include "tests/test_helpers.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace beehive {
namespace {

using testing::CounterApp;
using testing::I64;
using testing::Incr;

constexpr std::size_t kWarmup = 10'000;
constexpr std::size_t kBatch = 4096;  // bounds the sim event queue (remote)

struct RunResult {
  double msgs_per_sec = 0;
  double allocs_per_msg = 0;
  std::uint64_t delivered = 0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

ClusterConfig base_config(std::size_t n_hives, bool profiler) {
  ClusterConfig cfg;
  cfg.n_hives = n_hives;
  cfg.hive.metrics_period = 0;  // keep the report timer off the hot path
  cfg.hive.profiler.enabled = profiler;
  cfg.hive.profiler.sample_every = 64;  // the production default
  return cfg;
}

/// One hive, one key: every message resolves to a local bee. The envelope
/// is built once and re-injected, so the loop measures dispatch + handler
/// cost, not message construction.
RunResult run_local(std::size_t n_messages, bool profiler) {
  AppSet apps;
  apps.emplace<CounterApp>();
  SimCluster sim(base_config(1, profiler), apps);
  sim.start();

  MessageEnvelope msg =
      MessageEnvelope::make(Incr{"k0", 1}, 0, kNoBee, 0, sim.now());
  for (std::size_t i = 0; i < kWarmup; ++i) sim.hive(0).inject(msg);
  sim.run_to_idle();

  const std::uint64_t runs_before = sim.hive(0).counters().handler_runs;
  const std::uint64_t allocs_before = testing::allocation_count();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n_messages; ++i) sim.hive(0).inject(msg);
  sim.run_to_idle();
  const double secs = seconds_since(t0);
  const std::uint64_t allocs = testing::allocation_count() - allocs_before;

  const std::uint64_t delivered =
      sim.hive(0).counters().handler_runs - runs_before;
  if (delivered != n_messages) {
    throw std::runtime_error("local: delivered " + std::to_string(delivered) +
                             " of " + std::to_string(n_messages));
  }
  RunResult r;
  r.delivered = delivered;
  r.msgs_per_sec = static_cast<double>(delivered) / secs;
  r.allocs_per_msg = static_cast<double>(allocs) / delivered;
  return r;
}

/// run_local through the batched ingress (DESIGN.md §12): the same route,
/// but messages arrive kInjectBatch at a time via Hive::inject_batch, so
/// runs that hit the dispatch memo share one activation (validation, bind,
/// policy, counters once per run; Map and the transaction still per
/// message). The A/B against `local` prices batched handler activation.
RunResult run_local_batched(std::size_t n_messages, bool profiler) {
  constexpr std::size_t kInjectBatch = 256;
  AppSet apps;
  apps.emplace<CounterApp>();
  SimCluster sim(base_config(1, profiler), apps);
  sim.start();

  MessageEnvelope msg =
      MessageEnvelope::make(Incr{"k0", 1}, 0, kNoBee, 0, sim.now());
  // The batch is built once and re-submitted: inject_batch borrows the
  // envelopes, so the loop measures batched dispatch, not construction.
  std::vector<MessageEnvelope> batch(kInjectBatch, msg);
  for (std::size_t i = 0; i < kWarmup; i += kInjectBatch) {
    sim.hive(0).inject_batch(batch);
  }
  sim.run_to_idle();

  const std::uint64_t runs_before = sim.hive(0).counters().handler_runs;
  const std::uint64_t allocs_before = testing::allocation_count();
  const std::size_t n_batches = n_messages / kInjectBatch;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n_batches; ++i) {
    sim.hive(0).inject_batch(batch);
  }
  sim.run_to_idle();
  const double secs = seconds_since(t0);
  const std::uint64_t allocs = testing::allocation_count() - allocs_before;

  const std::uint64_t delivered =
      sim.hive(0).counters().handler_runs - runs_before;
  if (delivered != n_batches * kInjectBatch) {
    throw std::runtime_error(
        "local_batched: delivered " + std::to_string(delivered) + " of " +
        std::to_string(n_batches * kInjectBatch));
  }
  RunResult r;
  r.delivered = delivered;
  r.msgs_per_sec = static_cast<double>(delivered) / secs;
  r.allocs_per_msg = static_cast<double>(allocs) / delivered;
  return r;
}

/// run_local with overload control armed (DESIGN.md §10): the app carries a
/// bounded mailbox and the transport a credit window, so every message pays
/// whatever the bound/credit bookkeeping costs on the local fast path — the
/// A/B against run_local is the price of turning `--bounded` on.
RunResult run_local_bounded(std::size_t n_messages, bool profiler) {
  AppSet apps;
  CounterApp& app = apps.emplace<CounterApp>();
  app.set_overload({.bounded = true,
                    .mailbox_limit = 1024,
                    .policy = OverloadPolicy::kShedNewest});
  ClusterConfig cfg = base_config(1, profiler);
  cfg.hive.transport.credit_window = 8;
  SimCluster sim(cfg, apps);
  sim.start();

  MessageEnvelope msg =
      MessageEnvelope::make(Incr{"k0", 1}, 0, kNoBee, 0, sim.now());
  for (std::size_t i = 0; i < kWarmup; ++i) sim.hive(0).inject(msg);
  sim.run_to_idle();

  const std::uint64_t runs_before = sim.hive(0).counters().handler_runs;
  const std::uint64_t allocs_before = testing::allocation_count();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n_messages; ++i) sim.hive(0).inject(msg);
  sim.run_to_idle();
  const double secs = seconds_since(t0);
  const std::uint64_t allocs = testing::allocation_count() - allocs_before;

  const std::uint64_t delivered =
      sim.hive(0).counters().handler_runs - runs_before;
  if (delivered != n_messages) {
    throw std::runtime_error("local_bounded: delivered " +
                             std::to_string(delivered) + " of " +
                             std::to_string(n_messages));
  }
  RunResult r;
  r.delivered = delivered;
  r.msgs_per_sec = static_cast<double>(delivered) / secs;
  r.allocs_per_msg = static_cast<double>(allocs) / delivered;
  return r;
}

/// run_local with span recording on, and optionally the tail sampler
/// armed on top (DESIGN.md §11). With the sampler armed every message
/// additionally pays the note_trace_end fast path; nothing is ever
/// retained (virtual-time e2e is far below the 20ms threshold), so the
/// A/B of with_tail=true against with_tail=false isolates the always-on
/// cost of tail sampling — the number the ≤3% budget gates. (Span
/// recording itself — 4 ring writes per local message — is PR-1
/// machinery, costs ~10-15% on this microbench, and is off by default;
/// its cost is reported separately as tracing_overhead.)
RunResult run_local_traced(std::size_t n_messages, bool profiler,
                           bool with_tail) {
  AppSet apps;
  apps.emplace<CounterApp>();
  ClusterConfig cfg = base_config(1, profiler);
  cfg.tracing = true;
  cfg.tail.enabled = with_tail;  // default latency threshold (20ms)
  SimCluster sim(cfg, apps);
  sim.start();

  MessageEnvelope msg =
      MessageEnvelope::make(Incr{"k0", 1}, 0, kNoBee, 0, sim.now());
  for (std::size_t i = 0; i < kWarmup; ++i) sim.hive(0).inject(msg);
  sim.run_to_idle();

  const std::uint64_t runs_before = sim.hive(0).counters().handler_runs;
  const std::uint64_t allocs_before = testing::allocation_count();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n_messages; ++i) sim.hive(0).inject(msg);
  sim.run_to_idle();
  const double secs = seconds_since(t0);
  const std::uint64_t allocs = testing::allocation_count() - allocs_before;

  const std::uint64_t delivered =
      sim.hive(0).counters().handler_runs - runs_before;
  if (delivered != n_messages) {
    throw std::runtime_error("local_traced: delivered " +
                             std::to_string(delivered) + " of " +
                             std::to_string(n_messages));
  }
  RunResult r;
  r.delivered = delivered;
  r.msgs_per_sec = static_cast<double>(delivered) / secs;
  r.allocs_per_msg = static_cast<double>(allocs) / delivered;
  return r;
}

/// Two hives with placement pinned to hive 1; the driver injects on hive 0,
/// so every message crosses the control channel after resolve.
RunResult run_remote(std::size_t n_messages, bool profiler) {
  AppSet apps;
  apps.emplace<CounterApp>();
  SimCluster sim(base_config(2, profiler), apps);
  sim.registry().set_placement_hook(
      [](AppId, const CellSet&, HiveId) -> HiveId { return 1; });
  sim.start();

  MessageEnvelope msg =
      MessageEnvelope::make(Incr{"k0", 1}, 0, kNoBee, 0, sim.now());
  for (std::size_t i = 0; i < kWarmup; ++i) sim.hive(0).inject(msg);
  sim.run_to_idle();

  const std::uint64_t runs_before = sim.hive(1).counters().handler_runs;
  const std::uint64_t allocs_before = testing::allocation_count();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t sent = 0; sent < n_messages;) {
    const std::size_t burst = std::min(kBatch, n_messages - sent);
    for (std::size_t i = 0; i < burst; ++i) sim.hive(0).inject(msg);
    sim.run_to_idle();
    sent += burst;
  }
  const double secs = seconds_since(t0);
  const std::uint64_t allocs = testing::allocation_count() - allocs_before;

  const std::uint64_t delivered =
      sim.hive(1).counters().handler_runs - runs_before;
  if (delivered != n_messages) {
    throw std::runtime_error("remote: delivered " + std::to_string(delivered) +
                             " of " + std::to_string(n_messages));
  }
  RunResult r;
  r.delivered = delivered;
  r.msgs_per_sec = static_cast<double>(delivered) / secs;
  r.allocs_per_msg = static_cast<double>(allocs) / delivered;
  return r;
}

/// The rep with the median msgs_per_sec (odd rep counts pick the true
/// middle; even ones the lower middle — stable, no averaging of reps).
RunResult median_by_throughput(std::vector<RunResult> reps) {
  std::sort(reps.begin(), reps.end(),
            [](const RunResult& a, const RunResult& b) {
              return a.msgs_per_sec < b.msgs_per_sec;
            });
  return reps[(reps.size() - 1) / 2];
}

void print_result(const char* label, const RunResult& r) {
  std::printf("%-15s %12.0f msgs/s  %6.2f allocs/msg  (%llu delivered)\n",
              label, r.msgs_per_sec, r.allocs_per_msg,
              static_cast<unsigned long long>(r.delivered));
}

void report_group(bench::JsonReport& report, const std::string& group,
                  const RunResult& r) {
  report.integer(group, "messages", r.delivered);
  report.number(group, "msgs_per_sec", r.msgs_per_sec);
  report.number(group, "allocs_per_msg", r.allocs_per_msg);
}

/// Percentage throughput lost with the profiler on (negative = faster).
double overhead_pct(const RunResult& off, const RunResult& on) {
  if (off.msgs_per_sec <= 0) return 0.0;
  return (off.msgs_per_sec - on.msgs_per_sec) / off.msgs_per_sec * 100.0;
}

int run(int argc, char** argv) {
  std::string json_path = "BENCH_dispatch.json";
  std::size_t n_messages = 200'000;
  std::size_t reps = 5;
  bool bounded_only = false;
  bool traced_only = false;
  int pin = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--messages") == 0 && i + 1 < argc) {
      n_messages = static_cast<std::size_t>(std::strtoull(
          argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      if (reps == 0) reps = 1;
    } else if (std::strcmp(argv[i], "--bounded") == 0) {
      bounded_only = true;
    } else if (std::strcmp(argv[i], "--traced") == 0) {
      traced_only = true;
    } else if (std::strcmp(argv[i], "--pin") == 0 && i + 1 < argc) {
      pin = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: micro_dispatch [--json PATH] [--messages N] "
                   "[--reps N] [--bounded] [--traced] [--pin N]\n"
                   "  --bounded  run only the unbounded-vs-bounded local A/B\n"
                   "             (overload control armed, DESIGN.md §10)\n"
                   "  --traced   run only the local tracing/tail-sampler A/Bs\n"
                   "             (tail sampling armed, DESIGN.md §11)\n"
                   "  --pin N    pin the benchmark to core N (Linux only)\n");
      return 2;
    }
  }

  if (pin >= 0) {
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(pin), &set);
    if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
      std::fprintf(stderr, "warning: could not pin to core %d\n", pin);
    }
#else
    std::fprintf(stderr, "warning: --pin is Linux-only, ignoring\n");
#endif
  }

  // Interleave the A/B variants within every rep so slow machine phases
  // (thermal, noisy neighbors) bias both sides the same way. The bounded
  // and traced variants ride in the same interleave so their A/Bs against
  // plain local are fair; --bounded / --traced restrict the run to just
  // that pair.
  std::vector<RunResult> local_off, local_on, remote_off, remote_on;
  std::vector<RunResult> local_bat, local_bnd, local_spn, local_trc;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    local_off.push_back(run_local(n_messages, /*profiler=*/false));
    if (!bounded_only && !traced_only) {
      local_bat.push_back(run_local_batched(n_messages, /*profiler=*/false));
    }
    if (!traced_only) {
      local_bnd.push_back(run_local_bounded(n_messages, /*profiler=*/false));
    }
    if (!bounded_only) {
      local_spn.push_back(
          run_local_traced(n_messages, /*profiler=*/false, /*tail=*/false));
      local_trc.push_back(
          run_local_traced(n_messages, /*profiler=*/false, /*tail=*/true));
    }
    if (bounded_only || traced_only) continue;
    local_on.push_back(run_local(n_messages, /*profiler=*/true));
    remote_off.push_back(run_remote(n_messages, /*profiler=*/false));
    remote_on.push_back(run_remote(n_messages, /*profiler=*/true));
  }
  const RunResult local = median_by_throughput(std::move(local_off));

  print_result("local", local);

  bench::JsonReport report("micro_dispatch");
  report_group(report, "local", local);

  if (!bounded_only && !traced_only) {
    const RunResult localbat = median_by_throughput(std::move(local_bat));
    print_result("local+batched", localbat);
    // Negative overhead = batching is a speedup; reported from the same
    // convention so the CI comparator can reuse its threshold logic.
    const double batch_gain = -overhead_pct(local, localbat);
    std::printf("batched activation gain (median of %zu reps): "
                "local %+.2f%%\n",
                reps, batch_gain);
    report_group(report, "local_batched", localbat);
    report.integer("batch_gain", "reps", reps);
    report.number("batch_gain", "local_pct", batch_gain);
  }

  if (!traced_only) {
    const RunResult localb = median_by_throughput(std::move(local_bnd));
    print_result("local+bounded", localb);
    const double bounded_oh = overhead_pct(local, localb);
    std::printf("bounded overhead (median of %zu reps): local %+.2f%%\n",
                reps, bounded_oh);
    report_group(report, "local_bounded", localb);
    report.integer("bounded_overhead", "reps", reps);
    report.number("bounded_overhead", "local_pct", bounded_oh);
  }

  if (!bounded_only) {
    const RunResult locals = median_by_throughput(std::move(local_spn));
    const RunResult localt = median_by_throughput(std::move(local_trc));
    print_result("local+spans", locals);
    print_result("local+spans+tail", localt);
    // Two numbers with different owners: tracing_overhead is the PR-1
    // span-recording cost (off by default, informational); traced_overhead
    // is the tail sampler's increment on top of span recording — the
    // always-on decision logic the ≤3% budget gates (DESIGN.md §11).
    const double tracing_oh = overhead_pct(local, locals);
    const double traced_oh = overhead_pct(locals, localt);
    std::printf("tracing overhead (median of %zu reps): local %+.2f%%\n",
                reps, tracing_oh);
    std::printf("tail-sampler overhead (median of %zu reps, vs spans-only): "
                "local %+.2f%%\n",
                reps, traced_oh);
    report_group(report, "local_spans", locals);
    report_group(report, "local_traced", localt);
    report.integer("tracing_overhead", "reps", reps);
    report.number("tracing_overhead", "local_pct", tracing_oh);
    report.integer("traced_overhead", "reps", reps);
    report.number("traced_overhead", "local_pct", traced_oh);
  }

  if (!bounded_only && !traced_only) {
    const RunResult localp = median_by_throughput(std::move(local_on));
    const RunResult remote = median_by_throughput(std::move(remote_off));
    const RunResult remotep = median_by_throughput(std::move(remote_on));

    print_result("local+profiler", localp);
    print_result("remote", remote);
    print_result("remote+profiler", remotep);
    const double local_oh = overhead_pct(local, localp);
    const double remote_oh = overhead_pct(remote, remotep);
    std::printf("profiler overhead (median of %zu reps): local %+.2f%%  "
                "remote %+.2f%%\n",
                reps, local_oh, remote_oh);

    report_group(report, "remote", remote);
    report_group(report, "local_profiler", localp);
    report_group(report, "remote_profiler", remotep);
    report.integer("profiler_overhead", "reps", reps);
    report.number("profiler_overhead", "local_pct", local_oh);
    report.number("profiler_overhead", "remote_pct", remote_oh);
  }
  if (!report.write_file(json_path)) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
  } else {
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace beehive

int main(int argc, char** argv) { return beehive::run(argc, argv); }
