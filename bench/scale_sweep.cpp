// Scalability sweep (extension beyond Figure 4): how the three TE designs
// behave as the cluster grows.
//
// For each hive count we report control-plane wire traffic, locality,
// hotspot share and TE bee count. Expected shape: naive stays centralized
// (hotspot ~1.0 regardless of hives), decoupled and optimized keep
// locality high as the cluster grows — the platform's scaling argument in
// one table.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/te_harness.h"

namespace beehive::bench {
namespace {

int usage(const char* argv0, int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: %s [--small] [--json PATH]\n"
      "  --small          trim the sweep for CI smoke runs\n"
      "  --json PATH      append the machine-readable table to PATH\n",
      argv0);
  return code;
}

struct Args {
  bool small = false;
  std::string json_path;
};

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
  return run_te_sweep(args);
}
