// Dispatch fast-path microbenchmark.
//
// Measures the platform's per-message cost on the two steady-state routes
// of paper §3's "Life of a Message":
//   local  — a 1-hive cluster where every injected message maps to a cell
//            owned by a local bee (resolve + deliver + handler, no wire).
//            Every message carries one key; `local_64keys` runs the same
//            route with each message's key drawn uniformly from 64, so
//            consecutive messages rarely share cells, and `local_emit`
//            sends a query whose handler emits one reply to a sink bee on
//            the same hive (two handler runs and one outbox hop each);
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
#include "util/rng.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace beehive {
namespace {

using testing::CounterApp;
using testing::CounterQuery;
using testing::I64;
using testing::Incr;
using testing::NoopSinkApp;

constexpr std::size_t kWarmup = 10'000;
constexpr std::size_t kBatch = 4096;  // bounds the sim event queue (remote)
constexpr std::size_t kManyKeys = 64;  // the local_64keys series
constexpr std::uint64_t kKeySeed = 42;

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

ClusterConfig bounded_config() {
  ClusterConfig cfg = base_config(1, false);
  cfg.hive.transport.credit_window = 8;
  return cfg;
}

ClusterConfig traced_config(bool with_tail) {
  ClusterConfig cfg = base_config(1, false);
  cfg.tracing = true;
  cfg.tail.enabled = with_tail;  // default latency threshold (20ms)
  return cfg;
}

/// One hive: every message resolves to a local bee. One envelope per key is
/// built up front and re-injected, so the loop measures dispatch + handler
/// cost, not message construction. With one key every message carries the
/// same cells; with more, each message's key is drawn uniformly from a
/// fixed-seed generator (like the end-to-end learning-switch workload's
/// random switch choice), so consecutive messages rarely repeat. The
/// warm-up visits every key, so the measured loop creates no bees. With
/// `emit`, each message is a CounterQuery instead of an Incr: its handler
/// emits one CounterValue to a no-op sink bee, so a message costs two
/// handler runs.
RunResult run_local(const char* label, const ClusterConfig& cfg,
                    const OverloadConfig& overload, std::size_t n_keys,
                    std::size_t n_messages, bool emit = false) {
  AppSet apps;
  apps.emplace<CounterApp>().set_overload(overload);
  if (emit) apps.emplace<NoopSinkApp>();
  SimCluster sim(cfg, apps);
  sim.start();

  std::vector<MessageEnvelope> msgs;
  for (std::size_t k = 0; k < n_keys; ++k) {
    const std::string key = "k" + std::to_string(k);
    msgs.push_back(emit ? MessageEnvelope::make(CounterQuery{key}, 0, kNoBee,
                                                0, sim.now())
                        : MessageEnvelope::make(Incr{key, 1}, 0, kNoBee, 0,
                                                sim.now()));
  }
  Xoshiro256 rng(kKeySeed);
  std::vector<std::uint32_t> order(n_messages);
  for (std::uint32_t& i : order) {
    i = static_cast<std::uint32_t>(rng.next_below(n_keys));
  }
  for (std::size_t i = 0; i < kWarmup; ++i) {
    sim.hive(0).inject(msgs[i % n_keys]);
  }
  sim.run_to_idle();

  const std::uint64_t runs_before = sim.hive(0).counters().handler_runs;
  const std::uint64_t allocs_before = testing::allocation_count();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint32_t i : order) sim.hive(0).inject(msgs[i]);
  sim.run_to_idle();
  const double secs = seconds_since(t0);
  const std::uint64_t allocs = testing::allocation_count() - allocs_before;

  const std::uint64_t delivered =
      (sim.hive(0).counters().handler_runs - runs_before) / (emit ? 2 : 1);
  if (delivered != n_messages) {
    throw std::runtime_error(std::string(label) + ": delivered " +
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
  const OverloadConfig unbounded;
  const OverloadConfig bounded{.bounded = true,
                               .mailbox_limit = 1024,
                               .policy = OverloadPolicy::kShedNewest};
  std::vector<RunResult> local_off, local_on, remote_off, remote_on;
  std::vector<RunResult> local_bnd, local_spn, local_trc, local_many;
  std::vector<RunResult> local_emit;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    local_off.push_back(run_local("local", base_config(1, false), unbounded,
                                  1, n_messages));
    if (!traced_only) {
      local_bnd.push_back(run_local("local_bounded", bounded_config(), bounded,
                                    1, n_messages));
    }
    if (!bounded_only) {
      local_spn.push_back(run_local("local_spans",
                                    traced_config(/*with_tail=*/false),
                                    unbounded, 1, n_messages));
      local_trc.push_back(run_local("local_traced",
                                    traced_config(/*with_tail=*/true),
                                    unbounded, 1, n_messages));
    }
    if (bounded_only || traced_only) continue;
    local_on.push_back(run_local("local_profiler", base_config(1, true),
                                 unbounded, 1, n_messages));
    local_many.push_back(run_local("local_64keys", base_config(1, false),
                                   unbounded, kManyKeys, n_messages));
    local_emit.push_back(run_local("local_emit", base_config(1, false),
                                   unbounded, 1, n_messages, /*emit=*/true));
    remote_off.push_back(run_remote(n_messages, /*profiler=*/false));
    remote_on.push_back(run_remote(n_messages, /*profiler=*/true));
  }
  const RunResult local = median_by_throughput(std::move(local_off));

  print_result("local", local);

  bench::JsonReport report("micro_dispatch");
  report_group(report, "local", local);

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
    const RunResult localm = median_by_throughput(std::move(local_many));
    const RunResult locale = median_by_throughput(std::move(local_emit));
    const RunResult remote = median_by_throughput(std::move(remote_off));
    const RunResult remotep = median_by_throughput(std::move(remote_on));

    print_result("local+profiler", localp);
    print_result("local_64keys", localm);
    print_result("local_emit", locale);
    print_result("remote", remote);
    print_result("remote+profiler", remotep);
    const double local_oh = overhead_pct(local, localp);
    const double remote_oh = overhead_pct(remote, remotep);
    std::printf("profiler overhead (median of %zu reps): local %+.2f%%  "
                "remote %+.2f%%\n",
                reps, local_oh, remote_oh);

    report_group(report, "local_64keys", localm);
    report_group(report, "local_emit", locale);
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
