// Distributed message tracing (the causal complement of metrics.h).
//
// Every message carries a trace_id minted deterministically at IO ingress
// and a causal_depth that grows by one per emission hop, so one external
// event's entire fan-out — across bees, hives and the control channel —
// shares an id. Each hive owns a TraceRecorder: a fixed-capacity ring
// buffer of span events stamped with the runtime clock. Recording is O(1),
// allocation-free after construction, and compiled down to a single branch
// when disabled, so the dispatch path is unaffected by default.
//
// Recorded runs export as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing): one process per hive, one track per bee, one track
// per control-channel direction.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/types.h"

namespace beehive {

enum class SpanKind : std::uint8_t {
  kIngress = 1,       ///< Message entered the platform on an IO channel.
  kEnqueue = 2,       ///< Emission moved to the hive's outbox.
  kDequeue = 3,       ///< Emission routed by the end-of-turn flush.
  kRegistryResolve = 4,  ///< Map cells resolved to a bee (aux = owner hive).
  kHandlerStart = 5,  ///< Handler invocation began on a bee.
  kHandlerEnd = 6,    ///< Handler returned (aux = emitted count, aux2 = 1
                      ///< on failure/rollback).
  kHold = 7,          ///< Message held behind a transfer fence.
  kChannelSend = 8,   ///< Frame left a hive (hive = from, aux2 = to hive,
                      ///< aux = frame sequence for send/recv pairing,
                      ///< type = FrameKind byte, depth = frame bytes).
  kChannelRecv = 9,   ///< Frame arrived (same fields as kChannelSend).
  kMigrateStart = 10,  ///< Source hive froze a bee (aux = target hive).
  kMigrateIn = 11,     ///< Target hive installed a migrated bee.
  kMigrateOut = 12,    ///< Source hive retired the bee after the ack.
  kDecision = 13,      ///< Optimizer placement decision (bee = subject,
                       ///< aux = target hive, aux2 = 1 if accepted).
  kCreditStall = 14,   ///< A credit-stalled frame finally shipped (hive =
                       ///< sender, aux = microseconds spent waiting for
                       ///< window credit, aux2 = destination hive).
  kRetransmit = 15,    ///< Frame re-sent on ack timeout (hive = sender,
                       ///< aux = transport sequence, aux2 = destination,
                       ///< depth = retransmit round).
  kStallQueued = 16,   ///< Frame entered the credit stall queue (hive =
                       ///< sender, aux = stall-queue depth after the
                       ///< enqueue, aux2 = destination hive).
  kShed = 17,          ///< Load was dropped by an overload policy. Mailbox
                       ///< sheds carry the victim message's trace context;
                       ///< link-level sheds are trace 0 with aux2 = the
                       ///< destination hive.
  kBatchFlush = 18,    ///< An egress batch left the hive at end of turn
                       ///< (aux = frames coalesced, aux2 = destination).
};

std::string_view to_string(SpanKind kind);

/// Human label for a FrameKind byte as recorded in channel-span `type`.
std::string_view frame_kind_name(std::uint32_t kind);

struct TraceEvent {
  TimePoint at = 0;
  SpanKind kind = SpanKind::kIngress;
  std::uint32_t depth = 0;
  std::uint64_t trace_id = 0;
  HiveId hive = 0;
  BeeId bee = kNoBee;
  AppId app = 0;
  MsgTypeId type = 0;
  std::uint64_t aux = 0;
  std::uint64_t aux2 = 0;
  std::uint64_t seq = 0;  ///< Recorder-local order (ties on `at`).
};

/// Tail-based retention policy (the Dapper tail-at-scale lesson): every
/// message records cheap span headers into the ring, but full detail is
/// copied aside — surviving ring overwrites — only for traces that end
/// slow, shed, or failed. The decision is made once, at trace end.
struct TailSamplerConfig {
  bool enabled = false;
  /// Retain a trace whose end-to-end latency is at least this.
  Duration latency_threshold = 20 * kMillisecond;
  /// Retained-trace budget per recorder (slowest win; ties keep first).
  std::size_t max_traces = 16;
  /// Span budget per retained trace (oldest spans win on overflow).
  std::size_t max_spans_per_trace = 192;
};

/// Fixed-capacity ring buffer of TraceEvents. Not thread-safe: each hive
/// (single-threaded by construction in both runtimes) owns its own. The
/// drop counters are atomics so scrape threads may read them while the
/// owning loop records.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = 1 << 16);

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  void record(TraceEvent event) {
    if (!enabled_) return;
    event.seq = next_seq_++;
    if (size_ < ring_.size()) {
      ring_[(head_ + size_) & mask_] = event;
      ++size_;
    } else {
      ring_[head_] = event;  // full: overwrite the oldest
      head_ = (head_ + 1) & mask_;
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return ring_.size(); }
  /// Events overwritten because the ring was full.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  void clear();

  /// Events in recording order (oldest first).
  std::vector<TraceEvent> events() const;

  /// Preallocates retained-trace storage. Call before traffic; recording
  /// and note_trace_end never allocate afterwards.
  void configure_tail(const TailSamplerConfig& config);
  const TailSamplerConfig& tail_config() const { return tail_; }

  /// Tail-sampling decision point, called when a trace reaches a terminal
  /// (no further emissions / handler failure / shed). Fast path — trace
  /// under threshold and healthy — is a couple of inlined branches, no
  /// call, no allocation. Slow/errored traces get their spans copied from
  /// the ring into a preallocated retained slot; when the budget is full
  /// the least-slow retained trace is evicted iff the new one is slower,
  /// and either way the loser counts into tail_rejected().
  void note_trace_end(std::uint64_t trace_id, Duration e2e, bool errored) {
    if (!tail_.enabled || !enabled_ || trace_id == 0) return;
    if (!errored && e2e < tail_.latency_threshold) return;
    retain_trace(trace_id, e2e, errored);
  }

  /// Number of traces currently retained by the tail sampler.
  std::size_t tail_retained() const { return slots_used_; }
  /// Traces that hit the threshold but lost the budget contest (either the
  /// newcomer was not slower than every retained trace, or it evicted one).
  std::uint64_t tail_rejected() const {
    return tail_rejected_.load(std::memory_order_relaxed);
  }
  /// Satellite counter: total trace loss = ring overwrites + budget losses.
  std::uint64_t trace_dropped_total() const {
    return dropped() + tail_rejected();
  }

  /// Spans of all retained traces, in retention-slot order.
  std::vector<TraceEvent> retained_events() const;

  /// Ring events plus retained spans that have already been overwritten in
  /// the ring (deduped by recorder-local seq; ascending seq order).
  std::vector<TraceEvent> events_with_retained() const;

 private:
  struct RetainedTrace {
    std::uint64_t trace_id = 0;
    Duration e2e = 0;
    bool errored = false;
    std::uint32_t count = 0;  ///< Spans captured into this slot.
  };

  /// Slow half of note_trace_end: slot lookup / budget contest / ring scan.
  void retain_trace(std::uint64_t trace_id, Duration e2e, bool errored);

  std::vector<TraceEvent> ring_;  ///< Power-of-two sized (index by mask_).
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  std::atomic<std::uint64_t> dropped_{0};
  bool enabled_ = true;

  TailSamplerConfig tail_;
  std::vector<RetainedTrace> slots_;
  std::vector<TraceEvent> slot_events_;  ///< max_traces × max_spans_per_trace.
  std::size_t slots_used_ = 0;
  std::atomic<std::uint64_t> tail_rejected_{0};
};

/// Merges per-hive event streams into one, ordered by (at, hive, seq) —
/// deterministic for the simulated runtime.
std::vector<TraceEvent> merge_trace_events(
    const std::vector<const TraceRecorder*>& recorders);

/// Renders events as Chrome trace-event JSON ("traceEvents" array format):
/// handler invocations become complete ("X") spans on a per-bee track,
/// channel frames become spans on per-link tracks under a synthetic
/// "control channel" process, everything else becomes instant events.
/// Message-type names resolve through MsgTypeRegistry.
std::string to_chrome_trace(const std::vector<TraceEvent>& events);

/// Writes to_chrome_trace(events) to `path`. Returns false on IO error.
bool write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events);

}  // namespace beehive
