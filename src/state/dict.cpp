#include "state/dict.h"

namespace beehive {

std::optional<Dict::Value> Dict::replace(std::string_view key, Value value) {
  // Transparent find first: the overwhelmingly common case on the dispatch
  // hot path is overwriting an existing key, which must not construct a
  // temporary std::string for the lookup.
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    std::optional<Value> prior(std::move(it->second));
    it->second = std::move(value);
    return prior;
  }
  entries_.emplace(std::string(key), std::move(value));
  return std::nullopt;
}

std::optional<Dict::Value> Dict::take(std::string_view key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  std::optional<Value> prior(std::move(it->second));
  entries_.erase(it);
  return prior;
}

void Dict::for_each(
    const std::function<void(const std::string&, const Bytes&)>& fn) const {
  ByteWriter scratch;
  for (const auto& [k, v] : entries_) {
    scratch.clear();
    v.encode(scratch);
    fn(k, scratch.bytes());
  }
}

void Dict::merge_from(Dict&& other) {
  // Node handles move keys and values without copying either.
  while (!other.entries_.empty()) {
    auto moved =
        entries_.insert(other.entries_.extract(other.entries_.begin()));
    if (!moved.inserted) {
      moved.position->second = std::move(moved.node.mapped());
    }
  }
}

std::size_t Dict::byte_size() const {
  std::size_t total = name_.size();
  for (const auto& [k, v] : entries_) total += k.size() + v.size();
  return total;
}

void Dict::encode(ByteWriter& w) const {
  w.str(name_);
  w.varint(entries_.size());
  for (const auto& [k, v] : entries_) {
    w.str(k);
    encode_prefixed(w, v);
  }
}

Dict Dict::decode(ByteReader& r) {
  Dict d(r.str());
  std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string k = r.str();
    d.entries_.insert_or_assign(std::move(k), Value(r.str()));
  }
  return d;
}

}  // namespace beehive
