// Per-hive health scoring: one derived number (0..100) summarizing the
// pressure, reliability and latency signals the rest of the introspection
// layer measures, plus the raw inputs so an operator (or beectl) can see
// *why* a hive is unhealthy.
//
// The inputs are the hive's signals (instrument/signals.h) as of its last
// metrics report, copied out of a snapshot the report writes once, so
// building a HealthReport never touches a hive's dispatch path or its loop
// thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "instrument/signals.h"
#include "util/types.h"

namespace beehive {

struct HiveHealth {
  HiveId hive = 0;
  /// Failure-detector suspicion (set by the cluster-level assembler).
  bool suspected = false;
  std::uint64_t handler_failures = 0;  ///< lifetime rolled-back handlers
  /// Trace events lost: span-ring overwrites + tail-sampler rejections.
  std::uint64_t trace_dropped = 0;
  /// The hive's signals as of its last metrics report.
  HiveSignals signals;

  /// 0..100. Deductions: up to 40 for pressure, 30 for retransmit rate,
  /// 20 for suspicion, 10 for handler p99 beyond 10ms (see DESIGN.md §9).
  double score() const;
};

/// The registry's stats row as carried in health reports (fed from
/// RegistryService::stats; DESIGN.md §13).
struct RegistryHealth {
  std::uint64_t ops = 0;
  std::uint64_t lock_waits = 0;
  std::uint64_t lock_wait_us = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t resolves = 0;
};

struct HealthReport {
  TimePoint at = 0;
  std::vector<HiveHealth> hives;
  /// Registry lock and throughput counters; zero when the cluster didn't
  /// fill them.
  RegistryHealth registry;

  /// Lowest hive score (100 when empty) — the cluster's headline number.
  double min_score() const;

  std::string to_json() const;

  /// Compact one-line-per-hive rendering for flight-recorder dumps.
  std::string to_text() const;
};

}  // namespace beehive
