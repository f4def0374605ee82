#include "instrument/health.h"

#include <algorithm>
#include <cmath>

namespace beehive {

namespace {

/// Scores render like the ratio signals beside them: four decimals.
std::string fmt_score(double v) {
  return format_signal(SignalKind::kRatio, v);
}

}  // namespace

double HiveHealth::score() const {
  double s = 100.0;
  // Pressure is already normalized to [0, 1).
  s -= 40.0 * std::clamp(signals.pressure, 0.0, 1.0);
  // A 20% retransmit rate (or worse) costs the full reliability deduction.
  s -= 30.0 * std::clamp(signals.retransmit_rate * 5.0, 0.0, 1.0);
  if (suspected) s -= 20.0;
  // Handler tail: 10ms p99 starts hurting, 100ms+ costs the full 10.
  if (signals.handler_p99_us > 10'000) {
    const double over = std::log10(signals.handler_p99_us / 10'000.0);
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
                    ",\n  \"min_score\": " + fmt_score(min_score()) +
                    ",\n  \"hives\": [";
  bool first = true;
  for (const HiveHealth& h : hives) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"hive\": " + std::to_string(h.hive) +
           ", \"score\": " + fmt_score(h.score()) +
           ", \"suspected\": " + (h.suspected ? "true" : "false") +
           ", \"handler_failures\": " + std::to_string(h.handler_failures) +
           ", \"trace_dropped\": " + std::to_string(h.trace_dropped);
    append_signals_json(out, h.signals);
    out += "}";
  }
  out += "\n  ],\n  \"registry\": {\"ops\": " + std::to_string(registry.ops) +
         ", \"lock_waits\": " + std::to_string(registry.lock_waits) +
         ", \"lock_wait_us\": " + std::to_string(registry.lock_wait_us) +
         ", \"invalidations\": " + std::to_string(registry.invalidations) +
         ", \"resolves\": " + std::to_string(registry.resolves) + "}\n}\n";
  return out;
}

std::string HealthReport::to_text() const {
  std::string out;
  for (const HiveHealth& h : hives) {
    out += "hive " + std::to_string(h.hive) +
           " score=" + fmt_score(h.score());
    append_signals_text(out, h.signals);
    out += " handler_failures=" + std::to_string(h.handler_failures) +
           " trace_dropped=" + std::to_string(h.trace_dropped) +
           (h.suspected ? " SUSPECTED" : "") + "\n";
  }
  return out;
}

}  // namespace beehive
