// In-band cluster introspection — the `hive-top` view, implemented as a
// Beehive control application exactly like the collector (paper §3's
// pattern: platform services are just apps).
//
// Every hive's periodic LocalMetricsReport folds into whole-dictionary
// status cells (so the platform centralizes the app on one bee, under both
// runtimes); failure-detector events mark hives suspected. A reader —
// tests, examples, the HTTP /status.json endpoint under ThreadCluster —
// calls StatusApp::report_from_store on the status bee's thread and gets
// a StatusReport: per-hive and per-bee snapshots with queue depths,
// windowed rate rings, latency digests, the hive signals and the
// suspected set.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/app.h"
#include "instrument/failure_detector.h"
#include "instrument/metrics.h"
#include "state/store.h"

namespace beehive {

/// Fixed-capacity ring of (timestamp, value) samples, one per reporting
/// window: a plain value type, kept by the StatusApp inside its state cells
/// (one per hive and per bee row) and copied into StatusReports. push() is
/// O(1) and allocation-free after construction.
class TimeSeriesRing {
 public:
  static constexpr std::string_view kTypeName = "platform.tsring";
  static constexpr std::size_t kDefaultWindows = 64;
  /// Largest capacity decode() accepts: a ring arrives inside frames from
  /// other hives, and its capacity sizes an allocation.
  static constexpr std::size_t kMaxCapacity = 4096;

  explicit TimeSeriesRing(std::size_t capacity = kDefaultWindows)
      : samples_(capacity == 0 ? 1 : capacity) {}

  struct Sample {
    TimePoint at = 0;
    double value = 0.0;
  };

  void push(TimePoint at, double value) {
    samples_[(head_ + size_) % samples_.size()] = Sample{at, value};
    if (size_ < samples_.size()) {
      ++size_;
    } else {
      head_ = (head_ + 1) % samples_.size();
    }
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return samples_.size(); }

  /// Samples oldest-first.
  std::vector<Sample> snapshot() const;

  void encode(ByteWriter& w) const;
  /// Throws DecodeError when the capacity exceeds kMaxCapacity or the
  /// sample count exceeds the capacity.
  static TimeSeriesRing decode(ByteReader& r);

 private:
  std::vector<Sample> samples_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// One hive's row in the status view (also the value of one "status.hives"
/// cell, so the report is assembled by direct dictionary scan).
struct HiveStatus {
  static constexpr std::string_view kTypeName = "platform.hive_status";

  HiveId hive = 0;
  TimePoint at = 0;  ///< timestamp of the latest folded report
  std::uint64_t e2e_p50_us = 0;
  std::uint64_t e2e_p99_us = 0;
  bool suspected = false;
  /// The signals of the hive's latest report, as sent.
  HiveSignals signals;
  /// Messages received per reporting window, last N windows.
  TimeSeriesRing msgs_window;

  void encode(ByteWriter& w) const {
    w.u32(hive);
    w.i64(at);
    w.varint(e2e_p50_us);
    w.varint(e2e_p99_us);
    w.boolean(suspected);
    encode_signals(w, signals);
    msgs_window.encode(w);
  }
  static HiveStatus decode(ByteReader& r) {
    HiveStatus s;
    s.hive = r.u32();
    s.at = r.i64();
    s.e2e_p50_us = r.varint();
    s.e2e_p99_us = r.varint();
    s.suspected = r.boolean();
    s.signals = decode_signals(r);
    s.msgs_window = TimeSeriesRing::decode(r);
    return s;
  }
};

/// One bee's row (the value of one "status.bees" cell).
struct BeeStatus {
  static constexpr std::string_view kTypeName = "platform.bee_status";

  BeeId bee = kNoBee;
  AppId app = 0;
  std::string app_name;
  HiveId hive = 0;
  TimePoint at = 0;
  bool pinned = false;
  std::uint64_t cells = 0;
  std::uint64_t queue_depth = 0;  ///< holdback length at report time
  std::uint64_t msgs_in_window = 0;
  /// Profiler estimate of this bee's handler CPU microseconds, last window.
  std::uint64_t cost_us = 0;
  /// Handler-latency p99 (microseconds) over the last window.
  std::uint64_t handler_p99_us = 0;
  /// Messages received per reporting window, last N windows.
  TimeSeriesRing msgs_window;

  void encode(ByteWriter& w) const {
    w.u64(bee);
    w.u32(app);
    w.str(app_name);
    w.u32(hive);
    w.i64(at);
    w.boolean(pinned);
    w.varint(cells);
    w.varint(queue_depth);
    w.varint(msgs_in_window);
    w.varint(cost_us);
    w.varint(handler_p99_us);
    msgs_window.encode(w);
  }
  static BeeStatus decode(ByteReader& r) {
    BeeStatus s;
    s.bee = r.u64();
    s.app = r.u32();
    s.app_name = r.str();
    s.hive = r.u32();
    s.at = r.i64();
    s.pinned = r.boolean();
    s.cells = r.varint();
    s.queue_depth = r.varint();
    s.msgs_in_window = r.varint();
    s.cost_us = r.varint();
    s.handler_p99_us = r.varint();
    s.msgs_window = TimeSeriesRing::decode(r);
    return s;
  }
};

/// A status snapshot, rows sorted by hive and bee id (see
/// StatusApp::report_from_store).
struct StatusReport {
  TimePoint at = 0;
  std::vector<HiveStatus> hives;
  std::vector<BeeStatus> bees;
  std::vector<HiveId> suspected;

  /// Human/CI-friendly JSON rendering (served at /status.json when a
  /// StatusApp feeds the HTTP exporter).
  std::string to_json() const;
};

class StatusApp : public App {
 public:
  StatusApp();

  /// Windows retained per rate ring (hive and bee rows).
  static constexpr std::size_t kRingWindows = 16;
  /// Bee rows whose latest report is older than this are dropped from the
  /// snapshot on fold (bees that merged away or whose hive died).
  static constexpr Duration kStaleAfter = 10 * kSecond;

  static constexpr std::string_view kHivesDict = "status.hives";
  static constexpr std::string_view kBeesDict = "status.bees";
  /// Suspected-hive markers, keyed "suspected:<hive>".
  static constexpr std::string_view kMetaDict = "status.meta";

  /// Assembles a StatusReport from the status bee's store. Call it where
  /// the bee's handlers cannot run concurrently: the status bee's hive
  /// thread under ThreadCluster, or between SimCluster steps.
  static StatusReport report_from_store(const StateStore& store,
                                        TimePoint at);
};

}  // namespace beehive
