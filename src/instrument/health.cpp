#include "instrument/health.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace beehive {

namespace {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

}  // namespace

double HiveHealth::score() const {
  double s = 100.0;
  // Pressure is already normalized to [0, 1).
  s -= 40.0 * std::clamp(pressure, 0.0, 1.0);
  // A 20% retransmit rate (or worse) costs the full reliability deduction.
  s -= 30.0 * std::clamp(retransmit_rate * 5.0, 0.0, 1.0);
  if (suspected) s -= 20.0;
  // Handler tail: 10ms p99 starts hurting, 100ms+ costs the full 10.
  if (handler_p99_us > 10'000) {
    const double over =
        std::log10(static_cast<double>(handler_p99_us) / 10'000.0);
    s -= 10.0 * std::clamp(over, 0.0, 1.0);
  }
  return std::clamp(s, 0.0, 100.0);
}

double HealthReport::min_score() const {
  double min = 100.0;
  for (const HiveHealth& h : hives) min = std::min(min, h.score());
  return min;
}

std::string HealthReport::to_json() const {
  std::string out = "{\n  \"at\": " + std::to_string(at) +
                    ",\n  \"min_score\": " + fmt_double(min_score()) +
                    ",\n  \"hives\": [";
  bool first = true;
  for (const HiveHealth& h : hives) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"hive\": " + std::to_string(h.hive) +
           ", \"score\": " + fmt_double(h.score()) +
           ", \"pressure\": " + fmt_double(h.pressure) +
           ", \"retransmit_rate\": " + fmt_double(h.retransmit_rate) +
           ", \"suspected\": " + (h.suspected ? "true" : "false") +
           ", \"handler_p99_us\": " + std::to_string(h.handler_p99_us) +
           ", \"queue_depth\": " + std::to_string(h.queue_depth) +
           ", \"runq_depth\": " + std::to_string(h.runq_depth) +
           ", \"handler_failures\": " + std::to_string(h.handler_failures) +
           ", \"cost_us_window\": " + std::to_string(h.cost_us_window) +
           ", \"shed_total\": " + std::to_string(h.shed_total) +
           ", \"shed_per_s\": " + fmt_double(h.shed_per_s) +
           ", \"credits\": " + std::to_string(h.credits) +
           ", \"stalled\": " + std::to_string(h.stalled) +
           ", \"degraded\": " + (h.degraded ? "true" : "false") +
           ", \"trace_dropped\": " + std::to_string(h.trace_dropped) + "}";
  }
  out += "\n  ],\n  \"registry_shards\": [";
  first = true;
  for (const RegistryShardHealth& s : registry_shards) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"shard\": " + std::to_string(s.shard) +
           ", \"ops\": " + std::to_string(s.ops) +
           ", \"lock_waits\": " + std::to_string(s.lock_waits) +
           ", \"lock_wait_us\": " + std::to_string(s.lock_wait_us) +
           ", \"invalidations\": " + std::to_string(s.invalidations) +
           ", \"resolves\": " + std::to_string(s.resolves) +
           ", \"lease_term\": " + std::to_string(s.lease_term) + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string HealthReport::to_text() const {
  std::string out;
  for (const HiveHealth& h : hives) {
    out += "hive " + std::to_string(h.hive) +
           " score=" + fmt_double(h.score()) +
           " pressure=" + fmt_double(h.pressure) +
           " retx=" + fmt_double(h.retransmit_rate) +
           " p99us=" + std::to_string(h.handler_p99_us) +
           " runq=" + std::to_string(h.runq_depth) +
           " holdback=" + std::to_string(h.queue_depth) +
           " cost_us=" + std::to_string(h.cost_us_window) +
           " shed=" + std::to_string(h.shed_total) +
           " credits=" + std::to_string(h.credits) +
           " trace_drop=" + std::to_string(h.trace_dropped) +
           (h.degraded ? " DEGRADED" : "") +
           (h.suspected ? " SUSPECTED" : "") + "\n";
  }
  return out;
}

}  // namespace beehive
