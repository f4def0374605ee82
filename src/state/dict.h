// A state dictionary: the application-visible key/value container.
//
// An entry keeps the value it was written with. A typed value stored by
// put_as<T> stays a T, so a handler's read-modify-write copies and moves it
// and never serializes it. Bytes are made only when state leaves the bee or
// a caller asks for them: the migration snapshot, replication frames, raw
// get/for_each and the byte_size meter encode typed entries on demand, with
// no cached encoding, so const reads stay free of writes. Entries written
// as bytes (raw put, snapshot and replica restores) stay bytes until a
// handler rewrites them; get_as<T> decodes those.
#pragma once

#include <any>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "msg/codec.h"
#include "util/bytes.h"

namespace beehive {

class Dict {
 public:
  /// One entry's value: raw bytes, or a typed object together with the
  /// encoder of its C++ type.
  class Value {
   public:
    explicit Value(Bytes raw) : raw_(std::move(raw)) {}

    template <WireEncodable T>
    explicit Value(T typed)
        : typed_(std::move(typed)), encode_(&encode_typed<T>) {}

    /// The entry's T object itself; null when it holds anything else.
    template <WireEncodable T>
    const T* typed() const {
      return std::any_cast<T>(&typed_);
    }

    /// The value as a T: a copy when the entry holds a T, otherwise T
    /// decoded from the entry's bytes. Never a cast between types.
    template <WireEncodable T>
    T as() const {
      if (const T* t = typed<T>()) return *t;
      if (encode_ == nullptr) return decode_from_bytes<T>(raw_);
      return decode_from_bytes<T>(bytes());
    }

    /// Appends the value's encoding to `w`.
    void encode(ByteWriter& w) const {
      if (encode_ != nullptr) {
        encode_(typed_, w);
      } else {
        w.raw(raw_);
      }
    }

    /// The value's encoding.
    Bytes bytes() const {
      ByteWriter w;
      encode(w);
      return std::move(w).take();
    }

    /// The encoding's length.
    std::size_t size() const {
      return encode_ == nullptr ? raw_.size() : encoded_size(*this);
    }

   private:
    template <WireEncodable T>
    static void encode_typed(const std::any& typed, ByteWriter& w) {
      std::any_cast<T>(&typed)->encode(w);
    }

    std::any typed_;  ///< empty for raw entries
    Bytes raw_;       ///< empty for typed entries
    /// The encoder of typed_'s type; null for raw entries.
    void (*encode_)(const std::any&, ByteWriter&) = nullptr;
  };

  explicit Dict(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  void put(std::string_view key, Bytes value) {
    replace(key, Value(std::move(value)));
  }

  template <WireEncodable T>
  void put_as(std::string_view key, T value) {
    replace(key, Value(std::move(value)));
  }

  /// Stores `value` under `key` and hands back the entry it replaced
  /// (nullopt when the key was new): one tree traversal for the
  /// transactional write path's store plus undo capture.
  std::optional<Value> replace(std::string_view key, Value value);

  /// Removes `key` and hands back its entry (nullopt when absent).
  std::optional<Value> take(std::string_view key);

  /// Removes the key; returns whether it existed.
  bool erase(std::string_view key) { return take(key).has_value(); }

  std::optional<Bytes> get(std::string_view key) const {
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second.bytes();
  }

  template <WireEncodable T>
  std::optional<T> get_as(std::string_view key) const {
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second.as<T>();
  }

  bool contains(std::string_view key) const {
    return entries_.find(key) != entries_.end();
  }

  /// Iterates entries in key order (deterministic across runs), handing
  /// `fn` each value's encoding, valid during the call only.
  void for_each(
      const std::function<void(const std::string&, const Bytes&)>& fn) const;

  /// Iterates entries in key order, calling `fn(key, const T&)` with each
  /// value as a T: a T entry itself, with nothing copied or encoded, and
  /// any other entry decoded through Value::as.
  template <WireEncodable T, typename Fn>
  void for_each_as(Fn&& fn) const {
    for (const auto& [k, v] : entries_) {
      if (const T* t = v.template typed<T>()) {
        fn(k, *t);
      } else {
        fn(k, v.template as<T>());
      }
    }
  }

  /// Moves every entry of `other` in; `other`'s entry wins on a shared key.
  void merge_from(Dict&& other);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Total serialized footprint (keys + values), used by the capacity model.
  std::size_t byte_size() const;

  void encode(ByteWriter& w) const;
  static Dict decode(ByteReader& r);

 private:
  std::string name_;
  // std::map keeps iteration deterministic; dict sizes per bee are small
  // (a bee typically owns a handful of cells).
  std::map<std::string, Value, std::less<>> entries_;
};

}  // namespace beehive
