// Sampling cost profiler: turns "how many messages" into "how much work".
//
// The optimizer's original signal (ChannelMeter + per-bee message counts)
// says nothing about what a message *costs* — a bee handling 100 cheap
// timer ticks looks identical to one running 100 expensive route
// recomputations. The profiler closes that gap without touching the hot
// path's allocation contract: every handler activation pays one counter
// increment and one mask test; every Nth activation additionally reads the
// thread CPU clock around the handler and charges the measured nanoseconds
// to the bee; the hive scales them by the sampling period when it reports.
// Per-bee cost flows out through the existing LocalMetricsReport pipeline,
// so the collector and the placement strategies see measured cost with no
// extra wire machinery.
#pragma once

#include <cstdint>

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

  /// Hot path: true when this activation should be timed. One increment,
  /// one mask test.
  bool tick() { return config_.enabled && ((++activations_ & mask_) == 0); }

  /// Multiplier turning one sampled measurement into the estimated cost of
  /// the whole sampling period.
  std::uint64_t scale() const { return static_cast<std::uint64_t>(mask_) + 1; }

 private:
  ProfilerConfig config_;
  std::uint32_t mask_ = 0;
  std::uint64_t activations_ = 0;
};

}  // namespace beehive
