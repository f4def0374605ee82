// Per-hive health scoring: one derived number (0..100) summarizing the
// pressure, reliability and latency signals the rest of the introspection
// layer measures, plus the raw inputs so an operator (or beectl) can see
// *why* a hive is unhealthy.
//
// The inputs are all last-reported-window values published by each hive at
// metrics-report time into scrape-safe atomic cells, so building a
// HealthReport never touches a hive's dispatch path or its loop thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.h"

namespace beehive {

struct HiveHealth {
  HiveId hive = 0;
  /// Run-queue pressure score in [0, 1): backlog / (backlog + drained + 1)
  /// over the last metrics window. 0 = keeping up, ->1 = falling behind.
  double pressure = 0.0;
  /// Reliable-transport retransmits / data frames (lifetime ratio).
  double retransmit_rate = 0.0;
  /// Failure-detector suspicion (set by the cluster-level assembler).
  bool suspected = false;
  std::uint64_t handler_p99_us = 0;  ///< last window's handler duration p99
  std::uint64_t queue_depth = 0;     ///< holdback behind transfer fences
  std::uint64_t runq_depth = 0;      ///< run-queue tasks at report time
  std::uint64_t handler_failures = 0;  ///< lifetime rolled-back handlers
  std::uint64_t cost_us_window = 0;  ///< profiler: estimated CPU us, last window
  // -- Overload control (DESIGN.md §10) --
  std::uint64_t shed_total = 0;  ///< lifetime messages/frames shed by policy
  double shed_per_s = 0.0;       ///< shed rate over the last metrics window
  /// Smallest remaining credit across outbound links (-1 = no credited link).
  std::int64_t credits = -1;
  std::uint64_t stalled = 0;  ///< frames parked awaiting credit right now
  bool degraded = false;      ///< advertising reduced credit (low health)
  /// Trace events lost: span-ring overwrites + tail-sampler rejections.
  std::uint64_t trace_dropped = 0;

  /// 0..100. Deductions: up to 40 for pressure, 30 for retransmit rate,
  /// 20 for suspicion, 10 for handler p99 beyond 10ms (see DESIGN.md §9).
  double score() const;
};

/// One registry shard's contention snapshot as carried in health reports
/// (fed from RegistryService::shard_stats; DESIGN.md §13).
struct RegistryShardHealth {
  std::uint32_t shard = 0;
  std::uint64_t ops = 0;
  std::uint64_t lock_waits = 0;
  std::uint64_t lock_wait_us = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t resolves = 0;
  std::uint64_t lease_term = 0;
};

struct HealthReport {
  TimePoint at = 0;
  std::vector<HiveHealth> hives;
  /// Per-shard registry contention; empty when the cluster didn't fill it.
  std::vector<RegistryShardHealth> registry_shards;

  /// Lowest hive score (100 when empty) — the cluster's headline number.
  double min_score() const;

  std::string to_json() const;

  /// Compact one-line-per-hive rendering for flight-recorder dumps.
  std::string to_text() const;
};

}  // namespace beehive
