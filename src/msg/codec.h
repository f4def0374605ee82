// Codec concept for Beehive wire messages.
//
// A message type is any struct that exposes a stable type name plus
// symmetric encode/decode functions over the platform's byte format:
//
//   struct FlowStatQuery {
//     static constexpr std::string_view kTypeName = "of.flow_stat_query";
//     SwitchId sw{};
//     void encode(ByteWriter& w) const { w.u32(sw); }
//     static FlowStatQuery decode(ByteReader& r) { return {.sw = r.u32()}; }
//   };
//
// The type name — not the C++ type — defines identity on the wire, so two
// hives built from the same sources always agree on MsgTypeIds (FNV-1a of
// the name) without any handshake.
#pragma once

#include <algorithm>
#include <concepts>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/hash.h"
#include "util/types.h"

namespace beehive {

template <typename T>
concept WireEncodable = requires(const T& t, ByteWriter& w, ByteReader& r) {
  { T::kTypeName } -> std::convertible_to<std::string_view>;
  { t.encode(w) } -> std::same_as<void>;
  { T::decode(r) } -> std::same_as<T>;
};

template <WireEncodable T>
constexpr MsgTypeId msg_type_id() {
  return fnv1a32(T::kTypeName);
}

template <WireEncodable T>
Bytes encode_to_bytes(const T& value) {
  ByteWriter w;
  value.encode(w);
  return std::move(w).take();
}

template <WireEncodable T>
T decode_from_bytes(std::string_view data) {
  ByteReader r(data);
  return T::decode(r);
}

namespace detail {
/// The writer encoded_size and encode_prefixed encode into, one per thread.
/// It keeps its capacity, so once it has grown to the largest value staged
/// on the thread, staging allocates nothing.
inline ByteWriter& staging_writer() {
  thread_local ByteWriter w;
  return w;
}

/// `value`'s encoding, valid until the thread stages again; so `value`'s
/// encode must not itself stage.
template <typename T>
  requires requires(const T& t, ByteWriter& w) { t.encode(w); }
const Bytes& staged_encoding(const T& value) {
  ByteWriter& staging = staging_writer();
  staging.clear();
  value.encode(staging);
  return staging.bytes();
}
}  // namespace detail

/// The number of bytes `value` encodes to.
template <typename T>
std::size_t encoded_size(const T& value) {
  return detail::staged_encoding(value).size();
}

/// Appends `value`'s encoding to `w` behind its length, the framing
/// ByteWriter::str gives bytes: the value is encoded once, and `w` grows by
/// one append.
template <typename T>
void encode_prefixed(ByteWriter& w, const T& value) {
  w.str(detail::staged_encoding(value));
}

/// How many of `n` claimed items to pre-reserve when each takes at least
/// `min_item_bytes` of `r`. The count is untrusted input: a count beyond
/// what the remaining bytes could hold is certainly corrupt, and clamping
/// the reserve keeps it from becoming a multi-GB allocation before the
/// decode loop throws DecodeError at the real bound.
inline std::size_t reserve_bound(std::uint64_t n, const ByteReader& r,
                                 std::size_t min_item_bytes = 1) {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(n, r.remaining() / min_item_bytes));
}

// Helpers for encoding homogeneous vectors inside message bodies.
template <WireEncodable T>
void encode_vector(ByteWriter& w, const std::vector<T>& items) {
  w.varint(items.size());
  for (const T& item : items) item.encode(w);
}

template <WireEncodable T>
std::vector<T> decode_vector(ByteReader& r) {
  std::vector<T> items;
  std::uint64_t n = r.varint();
  items.reserve(reserve_bound(n, r));
  for (std::uint64_t i = 0; i < n; ++i) items.push_back(T::decode(r));
  return items;
}

}  // namespace beehive
