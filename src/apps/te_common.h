// Shared pieces of the two Traffic Engineering designs (paper Figure 2 and
// the decoupled redesign of §5).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/messages.h"
#include "msg/codec.h"
#include "util/types.h"

namespace beehive {

struct TEConfig {
  double delta_kbps = 1000.0;        ///< re-routing threshold (delta)
  Duration query_period = kSecond;   ///< "on TimeOut(1sec): Query"
  Duration route_period = kSecond;   ///< "on TimeOut(1sec): Route"
  /// Hysteresis: a re-alarmed flow must first fall below
  /// delta * clear_fraction. Keeps alarm chatter bounded but non-zero.
  double clear_fraction = 0.8;
};

/// Per-switch time-series of flow statistics: the value of one S cell.
struct FlowSeriesEntry {
  static constexpr std::string_view kTypeName = "te.flow_series";

  SwitchId sw = 0;
  std::uint32_t samples = 0;
  std::vector<FlowStat> latest;
  std::vector<std::uint32_t> flagged;  ///< flows already re-routed/alarmed

  bool is_flagged(std::uint32_t flow) const {
    return std::find(flagged.begin(), flagged.end(), flow) != flagged.end();
  }
  void flag(std::uint32_t flow) {
    if (!is_flagged(flow)) flagged.push_back(flow);
  }
  void unflag(std::uint32_t flow) {
    flagged.erase(std::remove(flagged.begin(), flagged.end(), flow),
                  flagged.end());
  }

  void encode(ByteWriter& w) const {
    w.u32(sw);
    w.u32(samples);
    encode_vector(w, latest);
    w.varint(flagged.size());
    for (std::uint32_t f : flagged) w.u32(f);
  }
  static FlowSeriesEntry decode(ByteReader& r) {
    FlowSeriesEntry e;
    e.sw = r.u32();
    e.samples = r.u32();
    e.latest = decode_vector<FlowStat>(r);
    std::uint64_t n = r.varint();
    e.flagged.reserve(reserve_bound(n, r, sizeof(std::uint32_t)));
    for (std::uint64_t i = 0; i < n; ++i) e.flagged.push_back(r.u32());
    return e;
  }
};

/// Route-side accumulator of the decoupled design: the value of the single
/// R cell.
struct RouteLedger {
  static constexpr std::string_view kTypeName = "te.route_ledger";

  std::uint64_t alarms_seen = 0;
  std::uint64_t flow_mods_emitted = 0;

  void encode(ByteWriter& w) const {
    w.varint(alarms_seen);
    w.varint(flow_mods_emitted);
  }
  static RouteLedger decode(ByteReader& r) {
    RouteLedger l;
    l.alarms_seen = r.varint();
    l.flow_mods_emitted = r.varint();
    return l;
  }
};

}  // namespace beehive
