// Sampling cost profiler: turns "how many messages" into "how much work".
//
// The optimizer's original signal (ChannelMeter + per-bee message counts)
// says nothing about what a message *costs* — a bee handling 100 cheap
// timer ticks looks identical to one running 100 expensive route
// recomputations. The profiler closes that gap without touching the hot
// path's allocation contract: every handler activation pays one counter
// increment and one mask test; every Nth activation additionally reads the
// thread CPU clock around the handler and charges the measured nanoseconds
// (scaled by the sampling period) to the bee and to the cells the handler
// mapped. Aggregates flow out through the existing LocalMetricsReport
// pipeline, so the collector and the placement strategies see measured
// cost with no extra wire machinery.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "state/txn.h"
#include "util/types.h"

namespace beehive {

struct ProfilerConfig {
  /// Master switch. Off: tick() is one load + one branch, nothing else.
  bool enabled = false;
  /// Sample every Nth handler activation (rounded up to a power of two so
  /// the tick test is a mask, not a modulo). 1 = measure every handler.
  std::uint32_t sample_every = 64;
};

/// Current thread's consumed CPU time in nanoseconds (CLOCK_THREAD_CPUTIME_ID;
/// 0 if the platform clock is unavailable).
std::uint64_t thread_cpu_now_ns();

/// Bounded per-cell cost attribution ("which cells are hot"). Updated only
/// on sampled activations — allocation there is fine — and read by the
/// health/report path, so a mutex (uncontended: one writer, rare readers)
/// is sufficient.
class CellHeatTable {
 public:
  /// Distinct cells a hive's profiler tracks before overflow folds into
  /// the "(other)" bucket. Bounds profiler memory on cell-per-entity apps.
  static constexpr std::size_t kDefaultCapacity = 128;

  explicit CellHeatTable(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  struct Row {
    std::string cell;  ///< "dict/key", or "(other)" for the overflow bucket
    AppId app = 0;
    std::uint64_t cost_ns = 0;  ///< scaled estimate (sample * period)
    std::uint64_t samples = 0;
  };

  /// Charges `cost_ns` to `cell` (creating its row while capacity lasts;
  /// folding into "(other)" afterwards).
  void add(const std::string& cell, AppId app, std::uint64_t cost_ns);

  /// Rows sorted hottest-first, at most `n`.
  std::vector<Row> top(std::size_t n) const;

  std::size_t size() const;
  void clear();

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<Row> rows_;
};

/// Per-hive profiler state. Owned by the Hive; tick() runs on the hive's
/// loop thread only, so the activation counter is a plain integer.
class CostProfiler {
 public:
  explicit CostProfiler(ProfilerConfig config) : config_(config) {
    // Round the period up to a power of two: the hot-path test becomes
    // (++n & mask) == 0.
    std::uint32_t period = config.sample_every == 0 ? 1 : config.sample_every;
    std::uint32_t pow2 = 1;
    while (pow2 < period) pow2 <<= 1;
    mask_ = pow2 - 1;
  }

  bool enabled() const { return config_.enabled; }

  /// Hot path: true when this activation should be timed. One increment,
  /// one mask test.
  bool tick() { return config_.enabled && ((++activations_ & mask_) == 0); }

  /// Multiplier turning one sampled measurement into the estimated cost of
  /// the whole sampling period.
  std::uint64_t scale() const { return static_cast<std::uint64_t>(mask_) + 1; }

  /// Charges one sampled handler run to the cells its policy granted
  /// (sampled path only — allocates freely). The scaled cost is split
  /// evenly across the policy's cells; foreach policies charge "dict/*".
  void attribute(const AccessPolicy& policy, AppId app,
                 std::uint64_t sampled_ns);

  CellHeatTable& heat() { return heat_; }
  const CellHeatTable& heat() const { return heat_; }

  std::uint64_t activations() const { return activations_; }

 private:
  ProfilerConfig config_;
  std::uint32_t mask_ = 0;
  std::uint64_t activations_ = 0;
  CellHeatTable heat_;
};

}  // namespace beehive
