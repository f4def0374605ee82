// Shared multi-threaded registry contention runner (DESIGN.md §13):
// T threads resolve pre-existing single-cell keys as fast as they can for
// a fixed wall time against a service with a given shard count. With one
// shard every resolve serializes on one mutex (the convoy the partitioning
// removes); with N shards resolves of keys hashing to different shards
// never touch the same lock. Used by micro_registry --contention and
// scale_sweep --control-plane so the committed BENCH_registry.json and
// BENCH_scale.json measure the same workload.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "cluster/registry.h"

namespace beehive::bench {

struct ContentionParams {
  std::size_t n_hives = 64;
  std::size_t n_keys = 100'000;
  std::size_t n_threads = 8;
  int duration_ms = 1000;
};

struct ContentionResult {
  std::uint64_t ops = 0;
  double ops_per_sec = 0.0;
  std::uint64_t lock_waits = 0;
  std::uint64_t lock_wait_us = 0;
  /// Fold of returned bee ids: defeats dead-code elimination and gives a
  /// cheap cross-run sanity value (same population -> same set of bees).
  std::uint64_t checksum = 0;
};

inline ContentionResult run_registry_contention(std::size_t n_shards,
                                                const ContentionParams& p) {
  constexpr AppId kApp = 1;
  ChannelMeter meter(p.n_hives);
  RegistryService registry(p.n_hives, &meter, n_shards);
  std::vector<CellSet> keys;
  keys.reserve(p.n_keys);
  for (std::size_t i = 0; i < p.n_keys; ++i) {
    keys.push_back(CellSet::single("switches", std::to_string(i)));
    registry.resolve_or_create(kApp, keys.back(),
                               static_cast<HiveId>(i % p.n_hives), false, 0);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_ops{0};
  std::atomic<std::uint64_t> checksum{0};
  std::vector<std::thread> workers;
  workers.reserve(p.n_threads);
  for (std::size_t t = 0; t < p.n_threads; ++t) {
    workers.emplace_back([&, t] {
      // Per-thread stride so threads walk the key space out of phase —
      // shard collisions happen by hash, not by lockstep iteration.
      std::uint64_t ops = 0;
      std::uint64_t sum = 0;
      std::size_t i = t * 7919;  // prime offset
      while (!stop.load(std::memory_order_relaxed)) {
        const CellSet& cells = keys[i % keys.size()];
        i += p.n_threads;
        sum += registry
                   .resolve_or_create(kApp, cells,
                                      static_cast<HiveId>(t % p.n_hives),
                                      false, 0)
                   .bee;
        ++ops;
      }
      total_ops.fetch_add(ops, std::memory_order_relaxed);
      checksum.fetch_add(sum, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(p.duration_ms));
  stop.store(true);
  for (std::thread& w : workers) w.join();

  ContentionResult r;
  r.ops = total_ops.load();
  r.ops_per_sec = static_cast<double>(r.ops) / (p.duration_ms / 1000.0);
  r.checksum = checksum.load();
  for (std::uint32_t s = 0; s < registry.shard_count(); ++s) {
    const RegistryShardStats stats = registry.shard_stats(s);
    r.lock_waits += stats.lock_waits;
    r.lock_wait_us += stats.lock_wait_ns / 1000;
  }
  return r;
}

}  // namespace beehive::bench
