// Binary wire encoding primitives.
//
// Beehive serializes every cell value and every inter-hive message with the
// same little-endian + LEB128-varint format so that (a) migration can ship
// cells byte-for-byte and (b) the control-channel meter sees realistic
// message sizes. `Bytes` (an alias of std::string) is the universal owned
// byte container: it is hashable, map-friendly and cheap to move.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

namespace beehive {

using Bytes = std::string;

/// Thrown when a reader runs past the end of its buffer or decodes a
/// malformed varint. Decoding failures are programming or corruption
/// errors, never expected control flow.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends primitive values to an owned byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void u16(std::uint16_t v) { fixed(v); }
  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }
  void i64(std::int64_t v) { fixed(static_cast<std::uint64_t>(v)); }

  /// LEB128 unsigned varint: 1 byte for values < 128.
  void varint(std::uint64_t v) {
    char tmp[10];
    std::size_t n = 0;
    while (v >= 0x80) {
      tmp[n++] = static_cast<char>((v & 0x7f) | 0x80);
      v >>= 7;
    }
    tmp[n++] = static_cast<char>(v);
    buf_.append(tmp, n);
  }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed byte string.
  void str(std::string_view s) {
    varint(s.size());
    buf_.append(s.data(), s.size());
  }

  /// Raw bytes with no length prefix (caller knows the framing).
  void raw(std::string_view s) { buf_.append(s.data(), s.size()); }

  std::size_t size() const { return buf_.size(); }
  const Bytes& bytes() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }

  /// Empties the buffer but keeps its capacity — the basis of the hive's
  /// reusable serialization scratch buffers (zero allocations once warm).
  void clear() { buf_.clear(); }

  /// Overwrites 4 already-written bytes at `pos` with a little-endian u32.
  /// Used to back-patch a count field whose value is only known after the
  /// payload behind it has been appended (e.g. batch frame headers).
  void patch_u32(std::size_t pos, std::uint32_t v) {
    for (std::size_t i = 0; i < sizeof(v); ++i) {
      buf_[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  }

 private:
  template <typename T>
  void fixed(T v) {
    // Serialize little-endian regardless of host order. Staging through a
    // stack buffer turns sizeof(T) capacity-checked push_backs into one
    // append (a single check + memcpy) — this is on the per-message
    // serialization hot path.
    char tmp[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      tmp[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    buf_.append(tmp, sizeof(T));
  }

  Bytes buf_;
};

/// Reads primitive values from a byte view; throws DecodeError on underrun.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint16_t u16() { return fixed<std::uint16_t>(); }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (shift > 63) throw DecodeError("varint too long");
      std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
    }
    return v;
  }

  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool boolean() { return u8() != 0; }

  std::string str() {
    std::uint64_t n = varint();
    need(n);
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  std::string_view view(std::size_t n) {
    need(n);
    std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  T fixed() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) throw DecodeError("buffer underrun");
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace beehive
