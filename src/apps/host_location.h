// Seattle-style host location resolution (paper §4, "Routing":
// "approaches such as Portland and Seattle can be easily implemented in a
// distributed fashion").
//
// SEATTLE's core is a one-hop DHT mapping each host's MAC to its current
// location (switch, port); switches query the directory instead of
// flooding. Here the directory is a Beehive application whose cells are
// hash buckets of the MAC space — the platform spreads the buckets over
// hives, and every register/unregister/lookup for a MAC serializes through
// its bucket's bee, giving the DHT's consistency without any DHT code.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/app.h"
#include "msg/codec.h"
#include "util/hash.h"
#include "util/types.h"

namespace beehive {

/// A host appeared at (switch, port) — e.g. derived from a PacketIn.
struct HostRegister {
  static constexpr std::string_view kTypeName = "seattle.register";
  std::uint64_t mac = 0;
  SwitchId sw = 0;
  std::uint16_t port = 0;

  void encode(ByteWriter& w) const {
    w.u64(mac);
    w.u32(sw);
    w.u16(port);
  }
  static HostRegister decode(ByteReader& r) {
    HostRegister m;
    m.mac = r.u64();
    m.sw = r.u32();
    m.port = r.u16();
    return m;
  }
};

struct HostUnregister {
  static constexpr std::string_view kTypeName = "seattle.unregister";
  std::uint64_t mac = 0;

  void encode(ByteWriter& w) const { w.u64(mac); }
  static HostUnregister decode(ByteReader& r) { return {r.u64()}; }
};

struct HostLookup {
  static constexpr std::string_view kTypeName = "seattle.lookup";
  std::uint64_t mac = 0;
  std::uint64_t query_id = 0;

  void encode(ByteWriter& w) const {
    w.u64(mac);
    w.u64(query_id);
  }
  static HostLookup decode(ByteReader& r) {
    HostLookup m;
    m.mac = r.u64();
    m.query_id = r.u64();
    return m;
  }
};

struct HostLocation {
  static constexpr std::string_view kTypeName = "seattle.location";
  std::uint64_t query_id = 0;
  std::uint64_t mac = 0;
  bool found = false;
  SwitchId sw = 0;
  std::uint16_t port = 0;

  void encode(ByteWriter& w) const {
    w.u64(query_id);
    w.u64(mac);
    w.boolean(found);
    w.u32(sw);
    w.u16(port);
  }
  static HostLocation decode(ByteReader& r) {
    HostLocation m;
    m.query_id = r.u64();
    m.mac = r.u64();
    m.found = r.boolean();
    m.sw = r.u32();
    m.port = r.u16();
    return m;
  }
};

/// One directory bucket: the value of one "seattle.hosts" cell.
struct HostBucket {
  static constexpr std::string_view kTypeName = "seattle.bucket";

  struct Entry {
    std::uint64_t mac = 0;
    SwitchId sw = 0;
    std::uint16_t port = 0;
  };
  std::vector<Entry> entries;

  const Entry* find(std::uint64_t mac) const {
    for (const Entry& e : entries) {
      if (e.mac == mac) return &e;
    }
    return nullptr;
  }
  void upsert(std::uint64_t mac, SwitchId sw, std::uint16_t port) {
    for (Entry& e : entries) {
      if (e.mac == mac) {
        e.sw = sw;
        e.port = port;
        return;
      }
    }
    entries.push_back({mac, sw, port});
  }
  bool remove(std::uint64_t mac) {
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->mac == mac) {
        entries.erase(it);
        return true;
      }
    }
    return false;
  }

  void encode(ByteWriter& w) const {
    w.varint(entries.size());
    for (const Entry& e : entries) {
      w.u64(e.mac);
      w.u32(e.sw);
      w.u16(e.port);
    }
  }
  static HostBucket decode(ByteReader& r) {
    HostBucket b;
    std::uint64_t n = r.varint();
    b.entries.reserve(reserve_bound(
        n, r,
        sizeof(std::uint64_t) + sizeof(std::uint32_t) + sizeof(std::uint16_t)));
    for (std::uint64_t i = 0; i < n; ++i) {
      HostBucket::Entry e;
      e.mac = r.u64();
      e.sw = r.u32();
      e.port = r.u16();
      b.entries.push_back(e);
    }
    return b;
  }
};

class HostLocationApp : public App {
 public:
  /// `n_buckets` controls sharding granularity (cells = buckets).
  explicit HostLocationApp(std::size_t n_buckets = 64);

  static constexpr std::string_view kDict = "seattle.hosts";

  static std::string bucket_key(std::uint64_t mac, std::size_t n_buckets) {
    return std::to_string(fnv1a64(std::string_view(
                              reinterpret_cast<const char*>(&mac),
                              sizeof mac)) %
                          n_buckets);
  }
};

}  // namespace beehive
