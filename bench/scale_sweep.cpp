// Scalability sweep (extension beyond Figure 4): how the three TE designs
// behave as the cluster grows, and how the control plane itself holds up
// at 100k bees (DESIGN.md §13).
//
// Default mode sweeps the TE designs over hive counts: for each hive count
// we report control-plane wire traffic, locality, hotspot share and TE bee
// count. Expected shape: naive stays centralized (hotspot ~1.0 regardless
// of hives), decoupled and optimized keep locality high as the cluster
// grows — the platform's scaling argument in one table.
//
// --control-plane instead measures the control plane at scale:
//   * optimizer round latency, full vs incremental, at 100k bees / 64
//     hives for every strategy — with a move-equality check (the
//     incremental round must pick exactly the moves the full round picks);
//   * registry resolve throughput by shard count under multi-threaded
//     contention (shared workload with micro_registry --contention);
//   * client resolve-cache hit rate under the sharded service.
// The JSON it writes is the committed BENCH_scale.json baseline.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/registry_contention.h"
#include "bench/te_harness.h"
#include "placement/strategy.h"
#include "util/rng.h"

namespace beehive::bench {
namespace {

int usage(const char* argv0, int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: %s [--small] [--json PATH] [--control-plane]\n"
      "  --small          trim the sweep for CI smoke runs\n"
      "  --json PATH      append the machine-readable table to PATH\n"
      "  --control-plane  measure the control plane at scale instead of\n"
      "                   the TE designs: optimizer full-vs-incremental\n"
      "                   round latency at 100k bees (with move-equality\n"
      "                   verification), registry ops/s by shard count\n"
      "                   under threaded contention, resolve-cache hit\n"
      "                   rate. Writes the BENCH_scale.json baseline.\n",
      argv0);
  return code;
}

struct Args {
  bool small = false;
  bool control_plane = false;
  std::string json_path;
};

/// Deterministic synthetic cluster view: `n_bees` bees over `n_hives`
/// hives, of which `dirty_fraction` were active this window (traffic +
/// cost + a skewed inbound row); the rest are idle. Mirrors what the
/// collector assembles: the full view carries every bee with dirty flags,
/// the incremental view carries ONLY the dirty bees (clean rows are never
/// even decoded in an incremental round).
ClusterView synth_view(std::uint64_t seed, std::size_t n_bees,
                       std::size_t n_hives, double dirty_fraction,
                       RoundMode mode) {
  Xoshiro256 rng(seed);
  ClusterView view;
  view.n_hives = n_hives;
  view.mode = mode;
  for (HiveId h = 0; h < n_hives; ++h) {
    view.hive_cells[h] = 0;
    view.hive_pressure[h] = 0.3 * rng.next_double();
  }
  for (std::size_t i = 0; i < n_bees; ++i) {
    const bool active = rng.next_double() < dirty_fraction;
    BeeView bee;
    bee.bee = static_cast<BeeId>(i + 1);
    bee.app = 1;
    bee.hive = static_cast<HiveId>(i % n_hives);
    bee.cells = 1 + rng.next_below(4);
    view.hive_cells[bee.hive] += bee.cells;
    bee.dirty = active;
    if (active) {
      bee.msgs_in = 16 + rng.next_below(1024);
      bee.cost_us = rng.next_below(4) == 0 ? bee.msgs_in * 3 : 0;
      bee.handler_invocations = bee.msgs_in;
      // Skewed inbound row: a majority source plus two minor ones, so
      // greedy/costpressure find real candidates.
      const auto major = static_cast<HiveId>(rng.next_below(n_hives));
      bee.inbound_by_hive[major] = (bee.msgs_in * 3) / 4;
      bee.inbound_by_hive[static_cast<HiveId>(rng.next_below(n_hives))] +=
          bee.msgs_in / 8;
      bee.inbound_by_hive[bee.hive] += bee.msgs_in / 8;
    }
    if (mode == RoundMode::kIncremental && !active) continue;
    view.bees.push_back(std::move(bee));
  }
  return view;
}

std::uint64_t run_strategy_us(PlacementStrategy& strategy,
                              const ClusterView& view,
                              std::vector<MigrationDecision>* out) {
  const auto t0 = std::chrono::steady_clock::now();
  *out = strategy.decide(view);
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

int run_control_plane(const Args& args) {
  const std::size_t n_bees = args.small ? 10'000 : 100'000;
  const std::size_t n_hives = args.small ? 16 : 64;
  const double dirty_fraction = 0.02;
  constexpr std::uint64_t kSeed = 0xbee5ca1eULL;
  JsonReport report("scale_control_plane");

  std::printf("optimizer rounds: %zu bees, %zu hives, %.0f%% dirty\n\n",
              n_bees, n_hives, 100.0 * dirty_fraction);
  std::printf("%-14s %10s %12s %9s %7s %7s %s\n", "strategy", "full_us",
              "incr_us", "speedup", "moves", "scored", "equal");

  GreedyFollowSources greedy;
  CostPressureStrategy costpressure;
  LoadBalanceStrategy loadbalance;
  const std::pair<const char*, PlacementStrategy*> strategies[] = {
      {"greedy", &greedy},
      {"costpressure", &costpressure},
      {"loadbalance", &loadbalance},
  };
  bool all_equal = true;
  for (const auto& [name, strategy] : strategies) {
    const ClusterView full =
        synth_view(kSeed, n_bees, n_hives, dirty_fraction, RoundMode::kFull);
    const ClusterView incr = synth_view(kSeed, n_bees, n_hives,
                                        dirty_fraction,
                                        RoundMode::kIncremental);
    std::vector<MigrationDecision> full_moves;
    std::vector<MigrationDecision> incr_moves;
    // Warm one throwaway round so first-touch page faults don't land in
    // the full-round figure.
    std::vector<MigrationDecision> warm;
    run_strategy_us(*strategy, incr, &warm);
    const std::uint64_t full_us =
        run_strategy_us(*strategy, full, &full_moves);
    const std::uint64_t incr_us =
        run_strategy_us(*strategy, incr, &incr_moves);
    const bool equal = full_moves == incr_moves;
    all_equal = all_equal && equal;
    const double speedup =
        incr_us > 0 ? static_cast<double>(full_us) /
                          static_cast<double>(incr_us)
                    : static_cast<double>(full_us);
    std::printf("%-14s %10llu %12llu %8.1fx %7zu %7zu %s\n", name,
                static_cast<unsigned long long>(full_us),
                static_cast<unsigned long long>(incr_us), speedup,
                full_moves.size(), incr.bees.size(),
                equal ? "yes" : "NO (BUG)");
    const std::string section = std::string("placement.") + name;
    report.integer(section, "bees", n_bees);
    report.integer(section, "hives", n_hives);
    report.number(section, "dirty_fraction", dirty_fraction);
    report.integer(section, "full_us", full_us);
    report.integer(section, "incremental_us", incr_us);
    report.number(section, "speedup", speedup);
    report.integer(section, "moves", full_moves.size());
    report.integer(section, "scored_incremental", incr.bees.size());
    report.boolean(section, "moves_equal", equal);
  }

  // Registry contention: same workload as micro_registry --contention so
  // the two committed baselines corroborate each other.
  ContentionParams params;
  if (args.small) {
    params.n_keys = 10'000;
    params.n_threads = 4;
    params.duration_ms = 250;
  }
  std::printf("\nregistry contention: %zu threads, %zu keys, %d ms per "
              "shard count\n\n",
              params.n_threads, params.n_keys, params.duration_ms);
  std::printf("%-7s %14s %12s %12s %8s\n", "shards", "ops/s", "lock_waits",
              "wait_us", "speedup");
  double base_ops = 0.0;
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    const ContentionResult r = run_registry_contention(shards, params);
    if (shards == 1) base_ops = r.ops_per_sec;
    const double speedup = base_ops > 0.0 ? r.ops_per_sec / base_ops : 0.0;
    std::printf("%-7zu %14.0f %12llu %12llu %7.1fx\n", shards,
                r.ops_per_sec,
                static_cast<unsigned long long>(r.lock_waits),
                static_cast<unsigned long long>(r.lock_wait_us), speedup);
    const std::string section = "registry." + std::to_string(shards);
    report.integer(section, "shards", shards);
    report.integer(section, "threads", params.n_threads);
    report.integer(section, "keys", params.n_keys);
    report.number(section, "ops_per_sec", r.ops_per_sec);
    report.integer(section, "lock_waits", r.lock_waits);
    report.integer(section, "lock_wait_us", r.lock_wait_us);
    report.number(section, "speedup_vs_1shard", speedup);
  }

  // Resolve-cache hit rate under the sharded service: 90% of lookups hit
  // a small hot set, the rest keep creating cold keys and missing.
  {
    ChannelMeter meter(params.n_hives);
    RegistryService registry(params.n_hives, &meter, 8);
    RegistryService::Client client(registry, 1);
    std::vector<CellSet> hot;
    for (std::size_t i = 0; i < 64; ++i) {
      hot.push_back(CellSet::single("switches", "hot" + std::to_string(i)));
    }
    std::size_t cold = 0;
    for (std::size_t i = 0; i < params.n_keys; ++i) {
      const CellSet cells =
          (i % 10 != 0)
              ? hot[i % hot.size()]
              : CellSet::single("switches", "cold" + std::to_string(++cold));
      auto out = client.resolve_or_create(1, cells, false, 0);
      (void)out;
    }
    const double hit_rate =
        static_cast<double>(client.cache_hits()) /
        static_cast<double>(client.cache_hits() + client.cache_misses());
    std::printf("\nresolve cache: %llu hits / %llu misses (%.1f%% hit "
                "rate)\n",
                static_cast<unsigned long long>(client.cache_hits()),
                static_cast<unsigned long long>(client.cache_misses()),
                100.0 * hit_rate);
    report.integer("resolve_cache", "lookups", params.n_keys);
    report.integer("resolve_cache", "hits", client.cache_hits());
    report.integer("resolve_cache", "misses", client.cache_misses());
    report.number("resolve_cache", "hit_rate", hit_rate);
  }

  if (!args.json_path.empty()) {
    if (!report.write_file(args.json_path)) {
      std::fprintf(stderr, "error: failed to write %s\n",
                   args.json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  if (!all_equal) {
    std::fprintf(stderr,
                 "error: incremental rounds picked different moves than "
                 "full rounds\n");
    return 1;
  }
  return 0;
}

int run_te_sweep(const Args& args) {
  std::vector<std::size_t> hive_counts = {5, 10, 20, 40, 80};
  if (args.small) hive_counts = {5, 10};

  std::printf("TE scaling sweep: 10 switches per hive, 100 flows/switch, "
              "20 s simulated\n\n");
  std::printf("%-10s %6s %12s %10s %9s %9s %8s\n", "design", "hives",
              "wire(KB)", "KB/s avg", "hotspot", "locality", "te_bees");

  JsonReport report("scale_sweep");
  for (TEMode mode :
       {TEMode::kNaive, TEMode::kDecoupled, TEMode::kOptimized}) {
    const char* name = mode == TEMode::kNaive       ? "naive"
                       : mode == TEMode::kDecoupled ? "decoupled"
                                                    : "optimized";
    for (std::size_t hives : hive_counts) {
      TEParams params;
      params.n_hives = hives;
      params.n_switches = hives * 10;
      params.duration = 20 * kSecond;
      TEResult r = run_te_scenario(mode, params);
      double avg = 0.0;
      for (double v : r.kbps) avg += v;
      if (!r.kbps.empty()) avg /= static_cast<double>(r.kbps.size());
      std::printf("%-10s %6zu %12.1f %10.1f %9.2f %9.2f %8zu\n", name, hives,
                  static_cast<double>(r.wire_bytes) / 1024.0, avg,
                  r.hotspot_share, r.locality, r.te_bees);
      report_te(report, std::string(name) + "." + std::to_string(hives), r,
                params);
    }
    std::printf("\n");
  }
  if (!args.json_path.empty()) {
    if (!report.write_file(args.json_path)) {
      std::fprintf(stderr, "error: failed to write %s\n",
                   args.json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace beehive::bench

int main(int argc, char** argv) {
  using namespace beehive::bench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      args.small = true;
    } else if (std::strcmp(argv[i], "--control-plane") == 0) {
      args.control_plane = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --json requires a path\n");
        return usage(argv[0], 2);
      }
      args.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      return usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
      return usage(argv[0], 2);
    }
  }
  return args.control_plane ? run_control_plane(args) : run_te_sweep(args);
}
