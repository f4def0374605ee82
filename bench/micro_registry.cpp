// Microbenchmarks of the cell registry (the Chubby-substitute lock
// service): resolution throughput, cache hit vs. miss cost, merge cost,
// and invalidation fan-out. The client resolve-cache hit and miss counts
// over a fixed lookup mix are pinned by
// RegistryClient.HotKeysMissOnceAndColdKeysAlways (tests/test_registry.cpp).
#include <benchmark/benchmark.h>

#include <string>

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

}  // namespace
}  // namespace beehive

BENCHMARK_MAIN();
