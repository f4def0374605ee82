#include "state/store.h"

namespace beehive {

Dict& StateStore::dict(std::string_view name) {
  auto it = dicts_.find(name);
  if (it == dicts_.end()) {
    it = dicts_.emplace(std::string(name), Dict(std::string(name))).first;
  }
  return it->second;
}

const Dict* StateStore::find_dict(std::string_view name) const {
  auto it = dicts_.find(name);
  return it == dicts_.end() ? nullptr : &it->second;
}

Dict* StateStore::find_dict(std::string_view name) {
  auto it = dicts_.find(name);
  return it == dicts_.end() ? nullptr : &it->second;
}

void StateStore::merge_from(StateStore&& other) {
  for (auto& [name, src] : other.dicts_) dict(name).merge_from(std::move(src));
  other.dicts_.clear();
}

std::size_t StateStore::byte_size() const {
  std::size_t total = 0;
  for (const auto& [_, d] : dicts_) total += d.byte_size();
  return total;
}

Bytes StateStore::snapshot() const {
  ByteWriter w;
  w.varint(dicts_.size());
  for (const auto& [_, d] : dicts_) d.encode(w);
  return std::move(w).take();
}

StateStore StateStore::from_snapshot(std::string_view data) {
  ByteReader r(data);
  StateStore store;
  std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    Dict d = Dict::decode(r);
    store.dicts_.emplace(d.name(), std::move(d));
  }
  return store;
}

std::size_t StateStore::cell_count() const {
  std::size_t total = 0;
  for (const auto& [_, d] : dicts_) total += d.size();
  return total;
}

}  // namespace beehive
