// Kandoo-style local control application (paper §4, "Kandoo"): an L2
// learning switch.
//
// Its state dictionary is keyed by switch id and every handler accesses a
// single key, so the platform conceives one cell — hence one bee — per
// switch. In a multi-hive deployment the bees naturally end up (or are
// migrated) next to each switch's driver, reproducing Kandoo's "local
// controllers close to switches" without the developer choosing placement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/app.h"
#include "msg/codec.h"

namespace beehive {

/// Per-switch MAC learning table: the value of one "lsw.macs" cell.
struct MacTable {
  static constexpr std::string_view kTypeName = "lsw.mac_table";

  struct Entry {
    std::uint64_t mac = 0;
    std::uint16_t port = 0;
  };
  std::vector<Entry> entries;

  const Entry* find(std::uint64_t mac) const {
    for (const Entry& e : entries) {
      if (e.mac == mac) return &e;
    }
    return nullptr;
  }
  void learn(std::uint64_t mac, std::uint16_t port) {
    for (Entry& e : entries) {
      if (e.mac == mac) {
        e.port = port;
        return;
      }
    }
    entries.push_back({mac, port});
  }

  void encode(ByteWriter& w) const {
    w.varint(entries.size());
    for (const Entry& e : entries) {
      w.u64(e.mac);
      w.u16(e.port);
    }
  }
  static MacTable decode(ByteReader& r) {
    MacTable t;
    std::uint64_t n = r.varint();
    t.entries.reserve(
        reserve_bound(n, r, sizeof(std::uint64_t) + sizeof(std::uint16_t)));
    for (std::uint64_t i = 0; i < n; ++i) {
      MacTable::Entry e;
      e.mac = r.u64();
      e.port = r.u16();
      t.entries.push_back(e);
    }
    return t;
  }
};

class LearningSwitchApp : public App {
 public:
  LearningSwitchApp();

  static constexpr std::string_view kDict = "lsw.macs";
};

}  // namespace beehive
