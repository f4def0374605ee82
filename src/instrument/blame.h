// Cross-hive trace assembly and critical-path blame (DESIGN.md §11).
//
// The per-hive TraceRecorders hold flat span streams; this collector-side
// module stitches them back into causal, per-trace timelines and answers
// the question tail latency actually poses: *where did this slow message
// spend its time?* For each assembled trace a backward critical-path walk
// — terminal handler (or shed) back through dequeue/enqueue hops to the
// ingress — attributes every microsecond of wall time to one of six
// buckets: queue, handler, serialize, wire, retransmit, stall.
//
// Link-level spans (kChannelSend/Recv, kCreditStall, kRetransmit) are
// trace-0 by construction — a wire frame aggregates many messages — so
// cross-hive hops are decomposed by interval overlap: the frame pair whose
// send follows the message's dequeue and whose receive precedes its
// handler start is the transmission that carried it. All selection is by
// (at, hive, seq), so assembly is deterministic for deterministic runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "instrument/trace.h"
#include "util/types.h"

namespace beehive {

/// Wall-time attribution buckets for one trace's critical path, in
/// microseconds. `queue` covers outbox waits, holdback waits and
/// receiver-side queueing; `serialize` is dequeue-to-wire time not
/// explained by stalls or retransmits (egress batching + encoding).
struct TraceBlame {
  std::uint64_t queue_us = 0;
  std::uint64_t handler_us = 0;
  std::uint64_t serialize_us = 0;
  std::uint64_t wire_us = 0;
  std::uint64_t retransmit_us = 0;
  std::uint64_t stall_us = 0;

  std::uint64_t total() const {
    return queue_us + handler_us + serialize_us + wire_us + retransmit_us +
           stall_us;
  }
  TraceBlame& operator+=(const TraceBlame& o);
};

/// One renderable waterfall segment (pre-paired server-side so clients —
/// beectl, CI scripts — never re-derive span pairing from raw events).
struct TraceRow {
  TimePoint start = 0;  ///< absolute runtime microseconds
  Duration dur = 0;     ///< 0 = instant marker
  HiveId hive = 0;
  std::string kind;   ///< handler | queue | wire | stall | retransmit | ...
  std::string label;  ///< human text, e.g. "handle wc.word"
  bool critical = false;
};

struct AssembledTrace {
  std::uint64_t trace_id = 0;
  TimePoint root_at = 0;  ///< earliest span (the ingress, when present)
  Duration e2e = 0;       ///< root -> terminal handler end / shed
  bool shed = false;      ///< trace ended in an overload shed
  bool failed = false;    ///< some handler on the trace rolled back
  std::uint32_t hops = 0; ///< cross-hive hops on the critical path
  std::vector<TraceEvent> spans;      ///< trace-carrying spans, time order
  std::vector<std::size_t> critical;  ///< indices into `spans`, root first
  std::vector<TraceRow> rows;         ///< waterfall segments, time order
  TraceBlame blame;
};

/// Stitches a merged multi-hive event stream (ring + tail-retained;
/// duplicates by (hive, seq) are removed) into per-trace timelines, walks
/// each critical path, and returns the `top_n` slowest traces, slowest
/// first (ties break on trace id).
std::vector<AssembledTrace> assemble_traces(std::vector<TraceEvent> events,
                                            std::size_t top_n);

/// Convenience for the cluster runtimes: gathers events_with_retained()
/// from every recorder and assembles.
std::vector<AssembledTrace> assemble_from_recorders(
    const std::vector<const TraceRecorder*>& recorders, std::size_t top_n);

/// Sum of per-trace blame (the beehive_blame_* Prometheus families).
TraceBlame blame_totals(const std::vector<AssembledTrace>& traces);

/// The /traces.json body: slowest-first trace list with blame breakdowns
/// and pre-paired waterfall rows.
std::string traces_json(const std::vector<AssembledTrace>& traces,
                        TimePoint now);

/// Compact one-line-per-trace rendering for flight-recorder dumps.
std::string blame_summary_text(const std::vector<AssembledTrace>& traces);

}  // namespace beehive
