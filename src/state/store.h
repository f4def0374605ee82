// A bee's state store: the set of dictionaries (restricted to the cells the
// bee owns) that handlers read and write through transactions.
//
// Because cell ownership is exclusive, a store never holds an entry that
// another bee's store also holds — the global application state is the
// disjoint union of all bee stores.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "state/dict.h"
#include "util/bytes.h"

namespace beehive {

class StateStore {
 public:
  /// Returns the named dictionary, creating it empty on first access.
  Dict& dict(std::string_view name);

  /// Read-only lookup; nullptr when the dictionary was never touched.
  const Dict* find_dict(std::string_view name) const;
  Dict* find_dict(std::string_view name);

  /// Moves every entry of `other` into this store (bee merge: when two
  /// previously independent cell sets turn out to intersect, the losing
  /// bee's state is folded into the winner).
  void merge_from(StateStore&& other);

  /// Total serialized footprint across dictionaries (capacity accounting).
  std::size_t byte_size() const;

  std::size_t dict_count() const { return dicts_.size(); }

  /// Serializes the full store (migration payload).
  Bytes snapshot() const;
  static StateStore from_snapshot(std::string_view data);

  /// Number of (dict, key) cells present, summed over the dictionaries.
  std::size_t cell_count() const;

 private:
  std::map<std::string, Dict, std::less<>> dicts_;
};

}  // namespace beehive
