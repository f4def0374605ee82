#include "core/transport.h"

#include <algorithm>

#include "core/wire.h"
#include "util/logging.h"

namespace beehive {

// Reliable header: kind | src hive | seq | cumulative ack | inner frame
// (raw to the end of the buffer — the channel preserves frame bounds).
// Standalone ack: kind | src hive | cumulative ack.
//
// Flow control needs nothing on the wire: a sender caps in-flight frames
// per link at its own credit_window and parks the excess in Peer::stalled
// until acks return credit.

ReliableTransport::ReliableTransport(HiveId self, RuntimeEnv& env,
                                     TransportConfig config)
    : self_(self), env_(env), config_(config) {}

std::size_t ReliableTransport::unacked_frames() const {
  std::size_t n = 0;
  for (const auto& [_, peer] : peers_) n += peer.unacked.size();
  return n;
}

std::int64_t ReliableTransport::credits_available() const {
  const std::uint64_t win = config_.credit_window;
  if (win == 0) return -1;
  std::int64_t min_credit = -1;
  for (const auto& [_, peer] : peers_) {
    const std::uint64_t in_flight = peer.unacked.size();
    const std::int64_t credit =
        in_flight >= win ? 0 : static_cast<std::int64_t>(win - in_flight);
    if (min_credit < 0 || credit < min_credit) min_credit = credit;
  }
  return min_credit;
}

void ReliableTransport::ship(HiveId to, Peer& peer, std::uint64_t seq,
                             const Bytes& inner) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(FrameKind::kReliable));
  w.u32(self_);
  w.varint(seq);
  // Piggyback the freshest cumulative ack for the reverse direction; any
  // data frame then doubles as an ack and the standalone timer no-ops.
  w.varint(peer.next_expected - 1);
  w.raw(inner);
  peer.ack_pending = false;
  env_.send_frame(self_, to, std::move(w).take());
}

void ReliableTransport::ship_new(HiveId to, Peer& peer, Bytes inner) {
  const std::uint64_t seq = peer.next_seq++;
  ++counters_.data_frames;
  ship(to, peer, seq, inner);
  peer.unacked.emplace(seq, std::move(inner));
  arm_retransmit(to, peer);
}

void ReliableTransport::send(HiveId to, Bytes inner) {
  Peer& peer = peers_[to];
  // Stall behind an existing stall unconditionally (FIFO), and behind a
  // full window. With flow control off this is one empty check and one
  // zero compare.
  if (!peer.stalled.empty() || window_full(peer)) {
    enqueue_stalled(to, peer, std::move(inner));
    return;
  }
  ship_new(to, peer, std::move(inner));
}

void ReliableTransport::note_shed(HiveId to) {
  ++counters_.frames_shed;
  if (shed_counter_ != nullptr) ++*shed_counter_;
  if (tracing()) trace_link(SpanKind::kShed, to, 0);
}

void ReliableTransport::trace_link(SpanKind kind, HiveId to, std::uint64_t aux,
                                   std::uint32_t depth) {
  TraceEvent ev;
  ev.at = env_.now();
  ev.kind = kind;
  ev.depth = depth;
  ev.hive = self_;
  ev.aux = aux;
  ev.aux2 = to;
  tracer_->record(ev);
}

void ReliableTransport::enqueue_stalled(HiveId to, Peer& peer, Bytes inner) {
  ++counters_.frames_stalled;
  const auto queue_frame = [&](Bytes frame) {
    peer.stalled.push_back(Peer::StalledFrame{std::move(frame), env_.now()});
    stalled_now_.fetch_add(1, std::memory_order_relaxed);
    if (tracing()) trace_link(SpanKind::kStallQueued, to, peer.stalled.size());
  };
  if (peer.stalled.size() < config_.stall_limit ||
      config_.overload == OverloadPolicy::kBlockSender) {
    // kBlockSender grows past the limit on purpose: stalled_now() > 0 is
    // the saturation signal admission control reads; losing frames is the
    // one thing this policy never does.
    queue_frame(std::move(inner));
    return;
  }
  // kShedNewest: tail drop — but only pure app-message batches; control
  // frames always queue.
  if (frame_is_sheddable(inner)) {
    note_shed(to);
    return;
  }
  queue_frame(std::move(inner));
}

void ReliableTransport::drain_stalled(HiveId to, Peer& peer) {
  while (!peer.stalled.empty() && !window_full(peer)) {
    Peer::StalledFrame entry = std::move(peer.stalled.front());
    peer.stalled.pop_front();
    stalled_now_.fetch_sub(1, std::memory_order_relaxed);
    if (tracing()) {
      const Duration waited = env_.now() - entry.since;
      trace_link(SpanKind::kCreditStall, to,
                 waited > 0 ? static_cast<std::uint64_t>(waited) : 0);
    }
    ship_new(to, peer, std::move(entry.frame));
  }
}

void ReliableTransport::arm_retransmit(HiveId to, Peer& peer) {
  if (peer.rtx_armed) return;
  peer.rtx_armed = true;
  if (peer.rto <= 0) peer.rto = config_.rto_initial;
  env_.schedule_after(self_, peer.rto, [this, to]() { retransmit_fired(to); });
}

void ReliableTransport::retransmit_fired(HiveId to) {
  Peer& peer = peers_[to];
  peer.rtx_armed = false;
  if (peer.unacked.empty()) {
    peer.rounds = 0;
    peer.rto = config_.rto_initial;
    return;
  }
  if (++peer.rounds > config_.max_rounds) {
    counters_.frames_abandoned += peer.unacked.size();
    BH_ERROR << "transport on hive " << self_ << ": abandoning "
             << peer.unacked.size() << " unacked frame(s) to hive " << to
             << " after " << config_.max_rounds << " retransmit rounds";
    peer.unacked.clear();
    peer.rounds = 0;
    peer.rto = config_.rto_initial;
    // Abandoning freed the whole window; stalled frames (if any) ship now
    // rather than waiting for an ack that will never come.
    drain_stalled(to, peer);
    return;
  }
  for (const auto& [seq, inner] : peer.unacked) {
    ++counters_.retransmits;
    if (tracing()) {
      trace_link(SpanKind::kRetransmit, to, seq,
                 static_cast<std::uint32_t>(peer.rounds));
    }
    ship(to, peer, seq, inner);
  }
  peer.rto = std::min(peer.rto * 2, config_.rto_max);
  arm_retransmit(to, peer);
}

void ReliableTransport::arm_ack(HiveId to, Peer& peer) {
  peer.ack_pending = true;
  if (peer.ack_armed) return;
  peer.ack_armed = true;
  env_.schedule_after(self_, kAckDelay, [this, to]() { ack_fired(to); });
}

void ReliableTransport::ack_fired(HiveId to) {
  Peer& peer = peers_[to];
  peer.ack_armed = false;
  if (!peer.ack_pending) return;  // a data frame piggybacked it already
  peer.ack_pending = false;
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(FrameKind::kAck));
  w.u32(self_);
  w.varint(peer.next_expected - 1);
  ++counters_.acks_sent;
  env_.send_frame(self_, to, std::move(w).take());
}

void ReliableTransport::process_ack(Peer& peer, std::uint64_t cum_ack) {
  bool progressed = false;
  while (!peer.unacked.empty() && peer.unacked.begin()->first <= cum_ack) {
    peer.unacked.erase(peer.unacked.begin());
    progressed = true;
  }
  if (progressed) {
    // The link is moving again: restart backoff for what remains.
    peer.rounds = 0;
    peer.rto = config_.rto_initial;
  }
}

void ReliableTransport::on_wire(std::string_view frame,
                                const DeliverFn& deliver) {
  ByteReader r(frame);
  const auto kind = static_cast<FrameKind>(r.u8());
  const HiveId src = r.u32();
  if (kind == FrameKind::kAck) {
    Peer& peer = peers_[src];
    process_ack(peer, r.varint());
    drain_stalled(src, peer);
    return;
  }
  const std::uint64_t seq = r.varint();
  const std::uint64_t ack = r.varint();
  Peer& peer = peers_[src];
  process_ack(peer, ack);
  drain_stalled(src, peer);

  if (seq < peer.next_expected) {
    // Duplicate of something already delivered; the sender keeps
    // retransmitting it because our ack was lost — re-ack.
    ++counters_.dup_frames_dropped;
    arm_ack(src, peer);
    return;
  }
  if (seq > peer.next_expected) {
    // Early arrival: hold it so handlers see per-pair FIFO order.
    auto [it, inserted] = peer.reorder.emplace(seq, Bytes(r.view(r.remaining())));
    (void)it;
    if (inserted) {
      ++counters_.reorder_buffered;
    } else {
      ++counters_.dup_frames_dropped;
    }
    arm_ack(src, peer);
    return;
  }

  // In sequence: deliver, then drain any buffered run behind it. Delivery
  // can trigger sends back to `src`, which re-enter peers_ — take copies
  // out of the map before each up-call.
  deliver(r.view(r.remaining()));
  peer.next_expected++;
  while (true) {
    auto it = peer.reorder.find(peer.next_expected);
    if (it == peer.reorder.end()) break;
    Bytes inner = std::move(it->second);
    peer.reorder.erase(it);
    peer.next_expected++;
    deliver(inner);
  }
  arm_ack(src, peer);
}

bool frame_is_sheddable(const Bytes& frame) {
  std::string_view bytes = frame;
  if (bytes.empty()) return true;
  ByteReader r(bytes);
  const auto kind = static_cast<FrameKind>(r.u8());
  if (kind == FrameKind::kAppMsg) return true;
  if (kind != FrameKind::kBatch) return false;
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t len = r.varint();
    std::string_view inner = r.view(len);
    if (inner.empty() ||
        static_cast<FrameKind>(static_cast<unsigned char>(inner[0])) !=
            FrameKind::kAppMsg) {
      return false;
    }
  }
  return true;
}

}  // namespace beehive
