// In-band cluster introspection — the `hive-top` view, implemented as a
// Beehive control application exactly like the collector (paper §3's
// pattern: platform services are just apps).
//
// Every hive's periodic LocalMetricsReport folds into whole-dictionary
// status cells (so the platform centralizes the app on one bee, under both
// runtimes); failure-detector events mark hives suspected. Any client —
// tests, examples, the HTTP /status.json endpoint under ThreadCluster —
// injects a StatusQuery and gets back a StatusReport: per-hive and per-bee
// snapshots with queue depths, windowed rate rings, latency digests,
// transport health and the suspected set.
#pragma once

#include <string>
#include <vector>

#include "core/app.h"
#include "instrument/failure_detector.h"
#include "instrument/metrics.h"
#include "instrument/registry.h"
#include "state/store.h"

namespace beehive {

/// Ask the cluster for a status snapshot. `token` is echoed in the report
/// so concurrent queriers can match answers.
struct StatusQuery {
  static constexpr std::string_view kTypeName = "platform.status_query";
  std::uint64_t token = 0;

  void encode(ByteWriter& w) const { w.varint(token); }
  static StatusQuery decode(ByteReader& r) { return {r.varint()}; }
};

/// One hive's row in the status view (also the value of one "status.hives"
/// cell, so the report is assembled by direct dictionary scan).
struct HiveStatus {
  static constexpr std::string_view kTypeName = "platform.hive_status";

  HiveId hive = 0;
  TimePoint at = 0;  ///< timestamp of the latest folded report
  std::uint64_t e2e_p50_us = 0;
  std::uint64_t e2e_p99_us = 0;
  TransportCounters transport;
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
    transport.encode(w);
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
    s.transport = TransportCounters::decode(r);
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
  std::uint64_t state_bytes = 0;
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
    w.varint(state_bytes);
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
    s.state_bytes = r.varint();
    s.queue_depth = r.varint();
    s.msgs_in_window = r.varint();
    s.cost_us = r.varint();
    s.handler_p99_us = r.varint();
    s.msgs_window = TimeSeriesRing::decode(r);
    return s;
  }
};

/// The answer to a StatusQuery.
struct StatusReport {
  static constexpr std::string_view kTypeName = "platform.status_report";

  std::uint64_t token = 0;
  TimePoint at = 0;
  std::vector<HiveStatus> hives;
  std::vector<BeeStatus> bees;
  std::vector<HiveId> suspected;

  void encode(ByteWriter& w) const {
    w.varint(token);
    w.i64(at);
    encode_vector(w, hives);
    encode_vector(w, bees);
    w.varint(suspected.size());
    for (HiveId h : suspected) w.u32(h);
  }
  static StatusReport decode(ByteReader& r) {
    StatusReport s;
    s.token = r.varint();
    s.at = r.i64();
    s.hives = decode_vector<HiveStatus>(r);
    s.bees = decode_vector<BeeStatus>(r);
    std::uint64_t n = r.varint();
    for (std::uint64_t i = 0; i < n; ++i) s.suspected.push_back(r.u32());
    return s;
  }

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

  /// Assembles a StatusReport straight from the status bee's store (tests
  /// and SimCluster callers that don't want the emit round-trip).
  static StatusReport report_from_store(const StateStore& store,
                                        TimePoint at,
                                        std::uint64_t token = 0);
};

}  // namespace beehive
