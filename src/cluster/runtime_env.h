// The runtime environment a Hive is programmed against.
//
// Hive logic is purely reactive; everything that differs between the
// deterministic discrete-event simulator and the threaded in-process
// cluster — clocks, timers, and frame delivery — hides behind this
// interface. Identical hive/bee/registry code runs under both runtimes.
#pragma once

#include <functional>

#include "util/bytes.h"
#include "util/rng.h"
#include "util/types.h"

namespace beehive {

/// One hive's run-queue accounting (pressure inputs; see DESIGN.md §9).
/// Runtimes that don't track queues return all-zeros.
struct QueueStats {
  std::uint64_t depth = 0;    ///< tasks queued for the hive right now
  /// High-watermark of depth since the previous queue_stats() read (the
  /// watermark resets to the current depth on read, so each scrape window
  /// reports its own peak instead of a startup burst pinned forever).
  std::uint64_t hwm = 0;
  std::uint64_t drained = 0;  ///< lifetime tasks executed
  /// Always 0: no runtime's run queue spills or drops. Kept for the
  /// end-to-end benchmark, which reports it as `cluster.runq_overflowed`.
  std::uint64_t overflowed = 0;
};

class RuntimeEnv {
 public:
  virtual ~RuntimeEnv() = default;

  virtual TimePoint now() const = 0;

  /// Run-queue depth/watermark/drain accounting for `hive`. Safe to call
  /// from the hive's own loop (hives read it at metrics-report time).
  /// Non-const: reading resets the depth high-watermark to the current
  /// depth, giving per-scrape-window watermark semantics.
  virtual QueueStats queue_stats(HiveId) { return {}; }

  /// Schedules `fn` to run (on the calling hive's execution context) after
  /// `delay`. Used for timers and platform periodic work.
  virtual void schedule_after(HiveId hive, Duration delay,
                              std::function<void()> fn) = 0;

  /// Ships an opaque frame to another hive's on_wire entry point. The
  /// runtime meters bytes on the control channel and applies link latency.
  virtual void send_frame(HiveId from, HiveId to, Bytes frame) = 0;

  /// Deterministic randomness source for platform decisions.
  virtual Xoshiro256& rng() = 0;
};

}  // namespace beehive
