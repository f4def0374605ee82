// Per-bee runtime instrumentation (paper §3, "Runtime Instrumentation").
//
// Each bee records how many messages/bytes it handles, where they came
// from (per-source-bee provenance — the input to the placement optimizer's
// "majority of messages" rule) and message causation (which input types
// produce which output types). Hives aggregate these locally and
// periodically report them to the collector application.
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
  std::uint64_t msgs_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t handler_invocations = 0;
  std::uint64_t handler_failures = 0;

  /// Cost profiler (instrument/profiler.h): thread-CPU nanoseconds of the
  /// *sampled* handler runs (unscaled — multiply by the sampling period for
  /// the window estimate), how many runs were sampled, and the committed
  /// write records the bee's transactions produced. All zero with the
  /// profiler off.
  std::uint64_t cost_ns_sampled = 0;
  std::uint64_t cost_samples = 0;
  std::uint64_t txn_ops = 0;

  /// Messages received keyed by (emitting bee, hive it emitted from) — the
  /// provenance the optimizer's "majority of messages from hive H2" rule
  /// consumes. Deterministically ordered for reporting.
  std::map<std::pair<BeeId, HiveId>, std::uint64_t> inbound_hive;

  /// Causation: (input type, output type) -> count. "packet_out messages
  /// are emitted upon receiving 80% of packet_in's" comes from this table.
  std::map<std::pair<MsgTypeId, MsgTypeId>, std::uint64_t> causation;

  /// Messages received per input type (the denominator of causation
  /// ratios).
  std::map<MsgTypeId, std::uint64_t> inbound_types;

  /// Emission -> handler-start latency (queueing + channel transit; the
  /// dominant term under the simulated runtime).
  LatencyHistogram queue_latency;
  /// Handler-start -> handler-end duration (wall time under the threaded
  /// runtime; zero under the simulator, whose handlers are instantaneous).
  LatencyHistogram handler_latency;

  void on_emit(MsgTypeId in_reply_to, MsgTypeId emitted, std::size_t bytes) {
    ++msgs_out;
    bytes_out += bytes;
    ++causation[{in_reply_to, emitted}];
  }
};

/// Lifetime totals of one hive's reliable control-channel transport
/// (core/transport.h). All-zero when the transport is disabled. Shipped
/// inside every LocalMetricsReport so the collector can chart what the
/// robustness machinery costs in Figure-4 units.
struct TransportCounters {
  std::uint64_t data_frames = 0;        ///< reliable frames first-sent
  std::uint64_t retransmits = 0;        ///< frames re-sent on ack timeout
  std::uint64_t acks_sent = 0;          ///< standalone ack frames
  std::uint64_t dup_frames_dropped = 0; ///< receive-side dedup discards
  std::uint64_t reorder_buffered = 0;   ///< frames held for in-order delivery
  std::uint64_t frames_abandoned = 0;   ///< gave up after the retransmit cap
  std::uint64_t frames_stalled = 0;     ///< frames that waited for credit
  std::uint64_t frames_shed = 0;        ///< frames dropped at the credit gate

  void encode(ByteWriter& w) const {
    w.varint(data_frames);
    w.varint(retransmits);
    w.varint(acks_sent);
    w.varint(dup_frames_dropped);
    w.varint(reorder_buffered);
    w.varint(frames_abandoned);
    w.varint(frames_stalled);
    w.varint(frames_shed);
  }
  static TransportCounters decode(ByteReader& r) {
    TransportCounters c;
    c.data_frames = r.varint();
    c.retransmits = r.varint();
    c.acks_sent = r.varint();
    c.dup_frames_dropped = r.varint();
    c.reorder_buffered = r.varint();
    c.frames_abandoned = r.varint();
    c.frames_stalled = r.varint();
    c.frames_shed = r.varint();
    return c;
  }
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
  std::uint64_t msgs_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t handler_invocations = 0;
  std::uint64_t handler_failures = 0;
  std::uint64_t cells = 0;
  std::uint64_t state_bytes = 0;
  /// Messages held behind the bee's transfer fence at report time — the
  /// instantaneous queue depth the StatusApp surfaces.
  std::uint64_t holdback = 0;
  bool pinned = false;
  /// Profiler estimate of this bee's handler CPU microseconds over the
  /// window (sampled ns x sampling period / 1000; 0 with the profiler off).
  std::uint64_t cost_us = 0;
  std::uint64_t cost_samples = 0;
  /// Committed transaction write records this window.
  std::uint64_t txn_ops = 0;

  /// Windowed latency distributions (see BeeMetrics for semantics).
  LatencyHistogram queue_latency;
  LatencyHistogram handler_latency;

  struct SourceCount {
    static constexpr std::string_view kTypeName = "platform.source_count";
    BeeId from = kNoBee;
    HiveId from_hive = 0;
    std::uint64_t count = 0;

    void encode(ByteWriter& w) const {
      w.u64(from);
      w.u32(from_hive);
      w.varint(count);
    }
    static SourceCount decode(ByteReader& r) {
      SourceCount s;
      s.from = r.u64();
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
    w.varint(msgs_out);
    w.varint(bytes_in);
    w.varint(bytes_out);
    w.varint(handler_invocations);
    w.varint(handler_failures);
    w.varint(cells);
    w.varint(state_bytes);
    w.varint(holdback);
    w.boolean(pinned);
    w.varint(cost_us);
    w.varint(cost_samples);
    w.varint(txn_ops);
    queue_latency.encode(w);
    handler_latency.encode(w);
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
    s.msgs_out = r.varint();
    s.bytes_in = r.varint();
    s.bytes_out = r.varint();
    s.handler_invocations = r.varint();
    s.handler_failures = r.varint();
    s.cells = r.varint();
    s.state_bytes = r.varint();
    s.holdback = r.varint();
    s.pinned = r.boolean();
    s.cost_us = r.varint();
    s.cost_samples = r.varint();
    s.txn_ops = r.varint();
    s.queue_latency = LatencyHistogram::decode(r);
    s.handler_latency = LatencyHistogram::decode(r);
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
  /// Reliable-transport lifetime totals (zeros when disabled).
  TransportCounters transport;
  /// Pressure, overload, cost and size signals (instrument/signals.h).
  HiveSignals signals;

  std::vector<BeeMetricsSample> bees;

  void encode(ByteWriter& w) const {
    w.u32(hive);
    w.i64(at);
    e2e_latency.encode(w);
    transport.encode(w);
    encode_signals(w, signals);
    encode_vector(w, bees);
  }
  static LocalMetricsReport decode(ByteReader& r) {
    LocalMetricsReport rep;
    rep.hive = r.u32();
    rep.at = r.i64();
    rep.e2e_latency = LatencyHistogram::decode(r);
    rep.transport = TransportCounters::decode(r);
    rep.signals = decode_signals(r);
    rep.bees = decode_vector<BeeMetricsSample>(r);
    return rep;
  }
};

void register_metrics_messages();

}  // namespace beehive
