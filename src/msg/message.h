// The message envelope: what flows between bees.
//
// A message carries a typed payload plus provenance (which app/bee/hive
// emitted it and when). Within a process the payload travels as an
// immutable shared object; when a message crosses a hive boundary it is
// serialized through MsgTypeRegistry and re-materialized on the far side,
// so a message that never leaves its hive is never encoded.
#pragma once

#include <cassert>
#include <memory>
#include <stdexcept>
#include <utility>

#include "msg/codec.h"
#include "msg/registry.h"
#include "util/types.h"

namespace beehive {

class MessageEnvelope {
 public:
  MessageEnvelope() = default;

  template <WireEncodable T>
  static MessageEnvelope make(T body, AppId from_app = 0,
                              BeeId from_bee = kNoBee, HiveId from_hive = 0,
                              TimePoint emitted_at = 0) {
    MsgTypeRegistry::instance().ensure<T>();
    MessageEnvelope m;
    m.type_ = msg_type_id<T>();
    m.from_app_ = from_app;
    m.from_bee_ = from_bee;
    m.from_hive_ = from_hive;
    m.emitted_at_ = emitted_at;
    m.body_ = std::make_shared<const T>(std::move(body));
    return m;
  }

  MsgTypeId type() const { return type_; }
  AppId from_app() const { return from_app_; }
  BeeId from_bee() const { return from_bee_; }
  HiveId from_hive() const { return from_hive_; }
  TimePoint emitted_at() const { return emitted_at_; }

  // -- Tracing ------------------------------------------------------------
  // trace_id groups one external event's whole causal fan-out; it is
  // minted deterministically at IO ingress (0 = untraced). causal_depth
  // grows by one per emission hop; trace_root_at is the ingress timestamp,
  // propagated unchanged so any hive can compute end-to-end latency.

  std::uint64_t trace_id() const { return trace_id_; }
  std::uint32_t causal_depth() const { return causal_depth_; }
  TimePoint trace_root_at() const { return trace_root_at_; }

  void set_trace(std::uint64_t trace_id, std::uint32_t depth,
                 TimePoint root_at) {
    trace_id_ = trace_id;
    causal_depth_ = depth;
    trace_root_at_ = root_at;
  }

  /// Stamps this message as one emission hop below `cause`.
  void inherit_trace(const MessageEnvelope& cause) {
    set_trace(cause.trace_id_, cause.causal_depth_ + 1, cause.trace_root_at_);
  }

  bool has_body() const { return body_ != nullptr; }

  template <WireEncodable T>
  bool is() const {
    return type_ == msg_type_id<T>();
  }

  /// Typed payload access; the caller must have checked `is<T>()` or be in
  /// a handler registered for T (the platform guarantees the match there).
  template <WireEncodable T>
  const T& as() const {
    if (!is<T>()) {
      throw std::logic_error(
          "MessageEnvelope::as<T>: payload is " +
          std::string(MsgTypeRegistry::instance().name_of(type_)) +
          ", requested " + std::string(T::kTypeName));
    }
    return *static_cast<const T*>(body_.get());
  }

  /// Serializes envelope header + payload for a hive-boundary crossing.
  Bytes to_wire() const {
    ByteWriter w;
    ByteWriter scratch;
    encode_to(w, scratch);
    return std::move(w).take();
  }

  /// Allocation-free variant of to_wire(): appends the serialized envelope
  /// to `out`, using `payload_scratch` (cleared here) as intermediate
  /// storage for the payload's length-prefixed encoding. With reusable
  /// writers both buffers retain their capacity across messages, so the
  /// steady-state dispatch path serializes without touching the heap.
  void encode_to(ByteWriter& out, ByteWriter& payload_scratch) const {
    const auto* entry = MsgTypeRegistry::instance().find(type_);
    assert(entry != nullptr && "message type not registered");
    out.u32(type_);
    out.u32(from_app_);
    out.u64(from_bee_);
    out.u32(from_hive_);
    out.i64(emitted_at_);
    out.u64(trace_id_);
    out.u32(causal_depth_);
    out.i64(trace_root_at_);
    payload_scratch.clear();
    entry->encode_into(body_.get(), payload_scratch);
    out.str(payload_scratch.bytes());
  }

  /// Reconstructs a typed envelope from wire bytes. Throws DecodeError on
  /// malformed input and logic_error for unregistered types.
  static MessageEnvelope from_wire(std::string_view data) {
    ByteReader r(data);
    MessageEnvelope m;
    m.type_ = r.u32();
    m.from_app_ = r.u32();
    m.from_bee_ = r.u64();
    m.from_hive_ = r.u32();
    m.emitted_at_ = r.i64();
    m.trace_id_ = r.u64();
    m.causal_depth_ = r.u32();
    m.trace_root_at_ = r.i64();
    // Borrow the payload straight out of the frame: decode() takes a view,
    // so the receive path materializes only the typed body object — the
    // intermediate copy the old code made bought nothing.
    const std::uint64_t payload_len = r.varint();
    std::string_view payload = r.view(payload_len);
    const auto* entry = MsgTypeRegistry::instance().find(m.type_);
    if (entry == nullptr) {
      throw std::logic_error("unregistered message type on wire");
    }
    m.body_ = entry->decode(payload);
    return m;
  }

  // Fixed header fields, in wire order: type(4) + app(4) + bee(8) +
  // hive(4) + time(8) + trace_id(8) + causal_depth(4) + trace_root_at(8).
  // Kept as a sum of sizeofs so it cannot silently drift from to_wire();
  // a test additionally asserts it against actual serialized bytes. The
  // payload follows as a length-prefixed string.
  static constexpr std::uint32_t kFixedHeaderBytes =
      sizeof(MsgTypeId) + sizeof(AppId) + sizeof(BeeId) + sizeof(HiveId) +
      sizeof(TimePoint) + sizeof(std::uint64_t) + sizeof(std::uint32_t) +
      sizeof(TimePoint);

 private:
  MsgTypeId type_ = 0;
  AppId from_app_ = 0;
  BeeId from_bee_ = kNoBee;
  HiveId from_hive_ = 0;
  TimePoint emitted_at_ = 0;
  std::uint64_t trace_id_ = 0;
  std::uint32_t causal_depth_ = 0;
  TimePoint trace_root_at_ = 0;
  std::shared_ptr<const void> body_;
};

}  // namespace beehive
