// Answer models: what a correct controller must reply, computed
// independently of the program under test.
//
// The generator applies each request to these models in the order it posts
// them. A switch's PacketIns all enter its master hive through one producer,
// and every request for one directory bucket enters the same hive and
// crosses the same link, so per-producer run-queue FIFO and per-link FIFO
// (DESIGN.md invariant 4) make post order the order the bees handle them.
// A reply that disagrees with the model is a wrong answer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

namespace beebench {

inline constexpr std::uint16_t kFlood = 0xffff;  // apps/messages.h kFloodPort

/// Every switch's MAC table as LearningSwitchApp must hold it, plus the
/// PacketIns each switch has not answered yet (oldest first).
class LswOracle {
 public:
  struct Answer {
    std::uint32_t slot = 0;  ///< the request this reply answered
    bool ok = false;         ///< reply matched the model
  };

  LswOracle(std::size_t n_switches, std::size_t max_pending)
      : tables_(n_switches), pending_(n_switches) {
    for (Fifo& f : pending_) f.items.resize(max_pending);
  }

  /// Learns the host into the switch's model table (priming: no reply is
  /// awaited).
  void learn(std::uint32_t sw, std::uint64_t mac, std::uint16_t port) {
    tables_.at(sw)[mac] = port;
  }

  /// Records a PacketIn posted for `slot` and returns the port the switch
  /// must answer with: the learned port of `dst`, or kFlood. Learning the
  /// source comes first, as in the app. False when the switch already has
  /// max_pending unanswered requests.
  bool sent(std::uint32_t slot, std::uint32_t sw, std::uint64_t src,
            std::uint16_t in_port, std::uint64_t dst,
            std::uint16_t* expected_port) {
    Fifo& f = pending_.at(sw);
    if (f.size == f.items.size()) return false;
    auto& table = tables_[sw];
    table[src] = in_port;
    const auto it = table.find(dst);
    const std::uint16_t port = it == table.end() ? kFlood : it->second;
    f.items[(f.head + f.size) % f.items.size()] = {slot, dst, port};
    ++f.size;
    if (expected_port != nullptr) *expected_port = port;
    return true;
  }

  /// Matches a PacketOut against its switch's oldest unanswered PacketIn.
  /// nullopt when the switch has none pending (a reply nobody asked for).
  std::optional<Answer> answered(std::uint32_t sw, std::uint64_t dst,
                                 std::uint16_t port) {
    if (sw >= pending_.size()) return std::nullopt;
    Fifo& f = pending_[sw];
    if (f.size == 0) return std::nullopt;
    const Pending& p = f.items[f.head];
    f.head = (f.head + 1) % f.items.size();
    --f.size;
    return Answer{p.slot, p.dst == dst && p.port == port};
  }

  std::size_t pending(std::uint32_t sw) const { return pending_.at(sw).size; }

 private:
  struct Pending {
    std::uint32_t slot = 0;
    std::uint64_t dst = 0;
    std::uint16_t port = 0;
  };
  struct Fifo {
    std::vector<Pending> items;
    std::size_t head = 0;
    std::size_t size = 0;
  };
  std::vector<std::unordered_map<std::uint64_t, std::uint16_t>> tables_;
  std::vector<Fifo> pending_;
};

/// Where the directory (HostLocationApp) must say each host is.
class DirectoryOracle {
 public:
  struct Location {
    std::uint32_t sw = 0;
    std::uint16_t port = 0;
  };

  explicit DirectoryOracle(std::size_t n_hosts) : at_(n_hosts) {}

  /// A HostRegister for `host` was posted.
  void moved(std::size_t host, Location to) { at_.at(host) = to; }

  /// The answer a HostLookup posted now must get.
  Location expected(std::size_t host) const { return at_.at(host); }

  /// True when a HostLocation reply carries the expected location.
  static bool matches(const Location& want, bool found, std::uint32_t sw,
                      std::uint16_t port) {
    return found && sw == want.sw && port == want.port;
  }

 private:
  std::vector<Location> at_;
};

}  // namespace beebench
