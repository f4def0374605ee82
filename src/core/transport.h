// Reliable at-least-once frame transport between hives.
//
// The cluster runtimes model a lossy channel (cluster/faults.h): frames
// can be dropped, duplicated, delayed or reordered, and links can be
// partitioned outright. This sublayer sits between Hive::send_frame /
// Hive::on_wire and the raw channel and restores the delivery contract the
// platform protocols were written against — effectively-once, per-pair
// FIFO — as long as the fault is transient:
//
//   * every data frame to a peer carries a per-(src,dst) sequence number
//     and is buffered until cumulatively acked;
//   * acks are cumulative, piggybacked on every reverse data frame and
//     otherwise sent as delayed standalone ack frames;
//   * unacked frames are retransmitted on a per-peer timer with
//     exponential backoff, up to a round cap — past it the frames are
//     abandoned (the link is treated as dead; higher layers such as the
//     migration retry protocol decide what that means);
//   * the receiver delivers frames strictly in sequence order, buffering
//     early arrivals and discarding duplicates, so handlers never observe
//     the network's duplication or reordering.
//
// Retransmissions and acks go through RuntimeEnv::send_frame like any
// other frame, so the robustness overhead is billed to the ChannelMeter
// and visible in Figure-4 bandwidth terms.
//
// Credit-based flow control (DESIGN.md §10) rides the same acks: a sender
// caps its unacked frames per link at `credit_window`; frames beyond the
// cap wait in a per-peer stalled queue (sequence numbers are assigned at
// ship time, so per-pair FIFO survives the stall) and drain as acks return
// credit. Past `stall_limit` the link's OverloadPolicy applies — with the
// invariant that frames carrying control traffic (merge/migrate/replica/
// registry) are never shed, only pure app-message batches are.
//
// The transport is opt-in (TransportConfig::enabled); a hive built without
// it sends raw frames, with zero bookkeeping on the dispatch hot path.
// Flow control is a second opt-in (credit_window > 0): with it off, send()
// costs one emptiness check and one zero compare.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "cluster/runtime_env.h"
#include "core/overload.h"
#include "instrument/registry.h"
#include "instrument/trace.h"
#include "util/bytes.h"
#include "util/types.h"

namespace beehive {

struct TransportConfig {
  /// Off by default: frames bypass the transport entirely.
  bool enabled = false;
  /// First retransmit fires this long after a send; should comfortably
  /// exceed one round trip of the wire latency.
  Duration rto_initial = 2 * kMillisecond;
  /// Backoff cap for the per-peer retransmit timer.
  Duration rto_max = 64 * kMillisecond;
  /// Retransmit rounds before the peer's unacked frames are abandoned.
  int max_rounds = 10;

  // -- Credit-based flow control (DESIGN.md §10) --------------------------
  /// Per-link credit window: max unacked data frames in flight to one
  /// peer. 0 = unlimited (flow control off).
  std::uint32_t credit_window = 0;
  /// Frames queued awaiting credit per link before `overload` applies.
  std::size_t stall_limit = 1024;
  /// What to do with sheddable frames once the stalled queue overflows.
  /// kBlockSender lets the queue grow and relies on Hive::overloaded()
  /// admission upstream; the shed policies drop app-message batches.
  OverloadPolicy overload = OverloadPolicy::kBlockSender;
};

/// Lifetime totals of one hive's reliable transport. Each field is a
/// registry Counter written only by the hive's loop thread (Counter::bump)
/// and exposed live in /metrics (Hive::register_metrics).
struct TransportCounters {
  Counter data_frames;         ///< reliable frames first-sent
  Counter retransmits;         ///< frames re-sent on ack timeout
  Counter acks_sent;           ///< standalone ack frames
  Counter dup_frames_dropped;  ///< receive-side dedup discards
  Counter reorder_buffered;    ///< frames held for in-order delivery
  Counter frames_abandoned;    ///< gave up after the retransmit cap
  Counter frames_stalled;      ///< frames that waited for credit
  Counter frames_shed;         ///< frames dropped at the credit gate
};

class ReliableTransport {
 public:
  /// Standalone acks are delayed this long, giving reverse traffic a
  /// chance to piggyback the ack for free.
  static constexpr Duration kAckDelay = 400 * kMicrosecond;

  ReliableTransport(HiveId self, RuntimeEnv& env, TransportConfig config);

  ReliableTransport(const ReliableTransport&) = delete;
  ReliableTransport& operator=(const ReliableTransport&) = delete;

  /// Wraps `inner` (a platform frame, kind byte first) in a reliable
  /// header and ships it; keeps a copy for retransmission until acked.
  void send(HiveId to, Bytes inner);

  /// Entry point for kReliable / kAck frames. Frames that complete an
  /// in-order run are handed to `deliver` (the hive's frame demux), in
  /// sequence order.
  using DeliverFn = std::function<void(std::string_view)>;
  void on_wire(std::string_view frame, const DeliverFn& deliver);

  const TransportCounters& counters() const { return counters_; }

  // -- Flow control ---------------------------------------------------------

  /// Frames waiting for credit right now, across all peers. Relaxed
  /// atomic: safe from any thread (Hive::overloaded() admission checks).
  std::uint64_t stalled_now() const {
    return stalled_now_.load(std::memory_order_relaxed);
  }

  /// Smallest remaining credit across links; -1 when flow control is off
  /// or no link has been used yet. Hive-thread only.
  std::int64_t credits_available() const;

  /// Link sheds also bump this external counter when set (the hive wires
  /// its shed_total cell here so mailbox and link sheds share one metric).
  void set_shed_counter(Counter* counter) { shed_counter_ = counter; }

  /// When set, the transport records link-level spans (kStallQueued,
  /// kCreditStall, kRetransmit, kShed) into the hive's recorder. These are
  /// trace-0 spans — a frame aggregates many messages — stitched back onto
  /// message timelines by interval overlap in the trace assembler.
  void set_tracer(TraceRecorder* tracer) { tracer_ = tracer; }

 private:
  struct Peer {
    // Outbound.
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, Bytes> unacked;  ///< seq -> inner frame
    Duration rto = 0;
    int rounds = 0;
    bool rtx_armed = false;
    /// A frame waiting for credit, stamped with when its wait began so
    /// the ship-time kCreditStall span can carry the full stall duration.
    struct StalledFrame {
      Bytes frame;
      TimePoint since = 0;
    };
    /// Frames waiting for credit, in send order. Sequence numbers are
    /// assigned when a frame leaves this queue, so FIFO holds.
    std::deque<StalledFrame> stalled;
    // Inbound.
    std::uint64_t next_expected = 1;
    std::map<std::uint64_t, Bytes> reorder;  ///< seq -> inner frame
    bool ack_pending = false;
    bool ack_armed = false;
  };

  void ship(HiveId to, Peer& peer, std::uint64_t seq, const Bytes& inner);
  /// Assigns a sequence number and puts `inner` on the wire (the moment a
  /// frame consumes one credit).
  void ship_new(HiveId to, Peer& peer, Bytes inner);
  /// True while `peer` has a full credit window of unacked frames.
  bool window_full(const Peer& peer) const {
    return config_.credit_window != 0 &&
           peer.unacked.size() >= config_.credit_window;
  }
  /// Queues a frame that found no credit, applying the overload policy
  /// once the stall limit is exceeded.
  void enqueue_stalled(HiveId to, Peer& peer, Bytes inner);
  /// Ships stalled frames while credit is available.
  void drain_stalled(HiveId to, Peer& peer);
  void note_shed(HiveId to);
  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }
  /// Records a trace-0 link span on this hive's recorder.
  void trace_link(SpanKind kind, HiveId to, std::uint64_t aux,
                  std::uint32_t depth = 0);
  void arm_retransmit(HiveId to, Peer& peer);
  void retransmit_fired(HiveId to);
  void arm_ack(HiveId to, Peer& peer);
  void ack_fired(HiveId to);
  void process_ack(Peer& peer, std::uint64_t cum_ack);

  HiveId self_;
  RuntimeEnv& env_;
  TransportConfig config_;
  std::map<HiveId, Peer> peers_;  ///< ordered: deterministic iteration
  TransportCounters counters_;
  std::atomic<std::uint64_t> stalled_now_{0};
  Counter* shed_counter_ = nullptr;
  TraceRecorder* tracer_ = nullptr;
};

/// True when `frame` may be dropped by a link-level shed policy: a bare
/// AppMsg frame or a kBatch whose every inner frame is an AppMsg. Control
/// frames (merge, migration, replication) make a frame unsheddable.
bool frame_is_sheddable(const Bytes& frame);

}  // namespace beehive
