// Microbenchmarks of the cell registry (the Chubby-substitute lock
// service): resolution throughput, cache hit vs. miss cost, merge cost,
// and invalidation fan-out.
//
// Two modes:
//   micro_registry [gbench flags]          google-benchmark micro numbers
//   micro_registry --contention [--small] [--threads N] [--json PATH]
//     Multi-threaded shard-contention sweep: T threads hammer
//     service-level resolves over a pre-created key population at shard
//     counts {1,2,4,8,16}. Emits BENCH_registry.json via bench_json.h
//     (ops/s by shard count, per-shard lock-wait totals) for CI's
//     scale-smoke diff. The client resolve-cache hit rate is measured by
//     `scale_sweep --control-plane`.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_json.h"
#include "bench/registry_contention.h"
#include "cluster/registry.h"

namespace beehive {
namespace {

constexpr AppId kApp = 1;

void BM_ResolveCreate(benchmark::State& state) {
  ChannelMeter meter(4);
  RegistryService registry(4, &meter);
  std::uint64_t i = 0;
  for (auto _ : state) {
    registry.resolve_or_create(
        kApp, CellSet::single("d", std::to_string(i++)), 1, false, 0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_ResolveCreate);

void BM_ResolveExisting(benchmark::State& state) {
  ChannelMeter meter(4);
  RegistryService registry(4, &meter);
  const auto population = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < population; ++i) {
    registry.resolve_or_create(kApp, CellSet::single("d", std::to_string(i)),
                               1, false, 0);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    registry.resolve_or_create(
        kApp, CellSet::single("d", std::to_string(i++ % population)), 2,
        false, 0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_ResolveExisting)->Arg(100)->Arg(10000);

void BM_ClientCacheHit(benchmark::State& state) {
  ChannelMeter meter(4);
  RegistryService registry(4, &meter);
  RegistryService::Client client(registry, 2);
  CellSet cells = CellSet::single("d", "hot");
  client.resolve_or_create(kApp, cells, false, 0);
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto out = client.resolve_or_create(kApp, cells, false, 0);
    benchmark::DoNotOptimize(out);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_ClientCacheHit);

void BM_ClientCacheMissNewKeys(benchmark::State& state) {
  ChannelMeter meter(4);
  RegistryService registry(4, &meter);
  RegistryService::Client client(registry, 2);
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto out = client.resolve_or_create(
        kApp, CellSet::single("d", std::to_string(i++)), false, 0);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_ClientCacheMissNewKeys);

void BM_MergeNBeesIntoOne(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ChannelMeter meter(4);
    RegistryService registry(4, &meter);
    CellSet all;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string key = std::to_string(i);
      registry.resolve_or_create(kApp, CellSet::single("d", key), 1, false,
                                 0);
      all.insert({"d", key});
    }
    state.ResumeTiming();
    auto out = registry.resolve_or_create(kApp, all, 2, false, 0);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_MergeNBeesIntoOne)->Arg(10)->Arg(100)->Arg(400);

void BM_WholeDictAbsorb(benchmark::State& state) {
  // The naive-TE centralization event: (D, "*") absorbing N per-key bees.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ChannelMeter meter(4);
    RegistryService registry(4, &meter);
    for (std::uint64_t i = 0; i < n; ++i) {
      registry.resolve_or_create(
          kApp, CellSet::single("d", std::to_string(i)), 1, false, 0);
    }
    state.ResumeTiming();
    auto out =
        registry.resolve_or_create(kApp, CellSet::whole_dict("d"), 0, false,
                                   0);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_WholeDictAbsorb)->Arg(10)->Arg(100)->Arg(400);

void BM_HiveOfLookup(benchmark::State& state) {
  ChannelMeter meter(4);
  RegistryService registry(4, &meter);
  auto out =
      registry.resolve_or_create(kApp, CellSet::single("d", "k"), 1, false,
                                 0);
  for (auto _ : state) {
    auto hive = registry.hive_of(out.bee);
    benchmark::DoNotOptimize(hive);
  }
}
BENCHMARK(BM_HiveOfLookup);

// ---------------------------------------------------------------------------
// --contention: multi-threaded shard sweep (DESIGN.md §13)
// ---------------------------------------------------------------------------

int run_contention_suite(int argc, char** argv) {
  bench::ContentionParams params;
  std::string json_path = "BENCH_registry.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--contention") == 0) {
      continue;
    } else if (std::strcmp(argv[i], "--small") == 0) {
      params.n_keys = 10'000;
      params.n_threads = 4;
      params.duration_ms = 250;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      params.n_threads = static_cast<std::size_t>(std::atoi(argv[++i]));
      if (params.n_threads == 0) params.n_threads = 1;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "unknown flag for --contention mode: %s\n"
                   "usage: micro_registry --contention [--small] "
                   "[--threads N] [--json PATH]\n",
                   argv[i]);
      return 2;
    }
  }

  std::printf("registry contention sweep: %zu threads, %zu keys, %d ms "
              "per shard count\n\n",
              params.n_threads, params.n_keys, params.duration_ms);
  std::printf("%-7s %14s %12s %12s\n", "shards", "ops/s", "lock_waits",
              "wait_us");

  bench::JsonReport report("micro_registry");
  double base_ops = 0.0;
  for (std::size_t shards : {1u, 2u, 4u, 8u, 16u}) {
    const bench::ContentionResult r =
        bench::run_registry_contention(shards, params);
    if (shards == 1) base_ops = r.ops_per_sec;
    std::printf("%-7zu %14.0f %12llu %12llu\n", shards, r.ops_per_sec,
                static_cast<unsigned long long>(r.lock_waits),
                static_cast<unsigned long long>(r.lock_wait_us));
    const std::string section = "contention." + std::to_string(shards);
    report.integer(section, "shards", shards);
    report.integer(section, "threads", params.n_threads);
    report.integer(section, "keys", params.n_keys);
    report.integer(section, "ops", r.ops);
    report.number(section, "ops_per_sec", r.ops_per_sec);
    report.integer(section, "lock_waits", r.lock_waits);
    report.integer(section, "lock_wait_us", r.lock_wait_us);
    report.number(section, "speedup_vs_1shard",
                  base_ops > 0.0 ? r.ops_per_sec / base_ops : 0.0);
  }

  if (!report.write_file(json_path)) {
    std::fprintf(stderr, "error: failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace beehive

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--contention") == 0) {
      return beehive::run_contention_suite(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
