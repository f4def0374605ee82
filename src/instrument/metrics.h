// Per-bee runtime instrumentation (paper §3, "Runtime Instrumentation").
//
// Each bee records how many messages it handles, which hives they came
// from (provenance — the input to the placement optimizer's "majority of
// messages" rule) and message causation (which input types produce which
// output types). Hives aggregate these locally and periodically report
// them to the collector application.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "instrument/histogram.h"
#include "instrument/signals.h"
#include "msg/codec.h"
#include "util/types.h"

namespace beehive {

struct BeeMetrics {
  std::uint64_t msgs_in = 0;

  /// Cost profiler (instrument/profiler.h): thread-CPU nanoseconds of the
  /// *sampled* handler runs (unscaled — multiply by the sampling period for
  /// the window estimate). Zero with the profiler off.
  std::uint64_t cost_ns_sampled = 0;

  /// Messages received keyed by the hive they were emitted from — the
  /// provenance the optimizer's "majority of messages from hive H2" rule
  /// consumes. Deterministically ordered for reporting.
  std::map<HiveId, std::uint64_t> inbound_by_hive;

  /// Causation: (input type, output type) -> count. "packet_out messages
  /// are emitted upon receiving 80% of packet_in's" comes from this table.
  std::map<std::pair<MsgTypeId, MsgTypeId>, std::uint64_t> causation;

  /// Messages received per input type (the denominator of causation
  /// ratios).
  std::map<MsgTypeId, std::uint64_t> inbound_types;

  /// Handler-start -> handler-end duration (wall time under the threaded
  /// runtime; zero under the simulator, whose handlers are instantaneous).
  /// The report ships only its p99; the hive's lifetime queue, handler and
  /// e2e distributions live in its own cells (Hive::queue_latency()).
  LatencyHistogram handler_latency;
};

/// One bee's flattened metrics snapshot as shipped to the collector.
struct BeeMetricsSample {
  static constexpr std::string_view kTypeName = "platform.bee_metrics_sample";

  BeeId bee = kNoBee;
  AppId app = 0;
  /// Human-readable app name, resolved by the reporting hive so viewers
  /// (StatusApp, beectl) need no AppSet of their own.
  std::string app_name;
  HiveId hive = 0;
  std::uint64_t msgs_in = 0;
  std::uint64_t cells = 0;
  /// Messages held behind the bee's transfer fence at report time — the
  /// instantaneous queue depth the StatusApp surfaces.
  std::uint64_t holdback = 0;
  bool pinned = false;
  /// Profiler estimate of this bee's handler CPU microseconds over the
  /// window (sampled ns x sampling period / 1000; 0 with the profiler off).
  std::uint64_t cost_us = 0;
  /// Handler-duration p99 over the window (microseconds).
  std::uint64_t handler_p99_us = 0;

  /// Messages received over the window, one row per source hive.
  struct SourceCount {
    static constexpr std::string_view kTypeName = "platform.source_count";
    HiveId from_hive = 0;
    std::uint64_t count = 0;

    void encode(ByteWriter& w) const {
      w.u32(from_hive);
      w.varint(count);
    }
    static SourceCount decode(ByteReader& r) {
      SourceCount s;
      s.from_hive = r.u32();
      s.count = r.varint();
      return s;
    }
  };
  std::vector<SourceCount> sources;

  /// Provenance: inputs by type and (input type -> output type) emission
  /// counts, for the collector's causation analytics.
  struct TypeCount {
    static constexpr std::string_view kTypeName = "platform.type_count";
    MsgTypeId type = 0;
    std::uint64_t count = 0;

    void encode(ByteWriter& w) const {
      w.u32(type);
      w.varint(count);
    }
    static TypeCount decode(ByteReader& r) {
      TypeCount t;
      t.type = r.u32();
      t.count = r.varint();
      return t;
    }
  };
  struct CausationCount {
    static constexpr std::string_view kTypeName = "platform.causation_count";
    MsgTypeId in = 0;
    MsgTypeId out = 0;
    std::uint64_t count = 0;

    void encode(ByteWriter& w) const {
      w.u32(in);
      w.u32(out);
      w.varint(count);
    }
    static CausationCount decode(ByteReader& r) {
      CausationCount c;
      c.in = r.u32();
      c.out = r.u32();
      c.count = r.varint();
      return c;
    }
  };
  std::vector<TypeCount> in_types;
  std::vector<CausationCount> causations;

  void encode(ByteWriter& w) const {
    w.u64(bee);
    w.u32(app);
    w.str(app_name);
    w.u32(hive);
    w.varint(msgs_in);
    w.varint(cells);
    w.varint(holdback);
    w.boolean(pinned);
    w.varint(cost_us);
    w.varint(handler_p99_us);
    encode_vector(w, sources);
    encode_vector(w, in_types);
    encode_vector(w, causations);
  }
  static BeeMetricsSample decode(ByteReader& r) {
    BeeMetricsSample s;
    s.bee = r.u64();
    s.app = r.u32();
    s.app_name = r.str();
    s.hive = r.u32();
    s.msgs_in = r.varint();
    s.cells = r.varint();
    s.holdback = r.varint();
    s.pinned = r.boolean();
    s.cost_us = r.varint();
    s.handler_p99_us = r.varint();
    s.sources = decode_vector<BeeMetricsSample::SourceCount>(r);
    s.in_types = decode_vector<BeeMetricsSample::TypeCount>(r);
    s.causations = decode_vector<BeeMetricsSample::CausationCount>(r);
    return s;
  }
};

/// Periodic report from one hive to the collector: a delta since the
/// previous report for every local bee, plus the hive's signals.
struct LocalMetricsReport {
  static constexpr std::string_view kTypeName = "platform.local_metrics";

  HiveId hive = 0;
  TimePoint at = 0;
  /// End-to-end latency (trace ingress -> terminal handler) of traces that
  /// ended on this hive during the window.
  LatencyHistogram e2e_latency;
  /// Pressure, overload, cost and size signals (instrument/signals.h).
  HiveSignals signals;

  std::vector<BeeMetricsSample> bees;

  void encode(ByteWriter& w) const {
    w.u32(hive);
    w.i64(at);
    e2e_latency.encode(w);
    encode_signals(w, signals);
    encode_vector(w, bees);
  }
  static LocalMetricsReport decode(ByteReader& r) {
    LocalMetricsReport rep;
    rep.hive = r.u32();
    rep.at = r.i64();
    rep.e2e_latency = LatencyHistogram::decode(r);
    rep.signals = decode_signals(r);
    rep.bees = decode_vector<BeeMetricsSample>(r);
    return rep;
  }
};

void register_metrics_messages();

}  // namespace beehive
