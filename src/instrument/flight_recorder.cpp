#include "instrument/flight_recorder.h"

#include <fstream>

namespace beehive {

void FlightRecorder::note(HiveId hive, std::string line) {
  std::lock_guard lock(mutex_);
  Ring& ring = ring_for_locked(hive);
  if (ring.size < ring.lines.size()) {
    ring.lines[(ring.head + ring.size) % ring.lines.size()] =
        std::move(line);
    ++ring.size;
  } else {
    ring.lines[ring.head] = std::move(line);
    ring.head = (ring.head + 1) % ring.lines.size();
  }
}

void FlightRecorder::set_span_source(SpanSource source) {
  std::lock_guard lock(mutex_);
  span_source_ = std::move(source);
}

void FlightRecorder::set_health_source(HealthSource source) {
  std::lock_guard lock(mutex_);
  health_source_ = std::move(source);
}

void FlightRecorder::set_trace_source(TraceSource source) {
  std::lock_guard lock(mutex_);
  trace_source_ = std::move(source);
}

FlightRecorder::Ring& FlightRecorder::ring_for_locked(HiveId hive) {
  for (Ring& r : rings_) {
    if (r.hive == hive) return r;
  }
  Ring& r = rings_.emplace_back();
  r.hive = hive;
  r.lines.resize(lines_per_hive_);
  return r;
}

std::string FlightRecorder::render_locked(const std::string& reason) const {
  std::string out = "=== flight recorder dump (" + reason + ") ===\n";
  for (const Ring& ring : rings_) {
    out += "--- hive " + std::to_string(ring.hive) + " (" +
           std::to_string(ring.size) + " lines) ---\n";
    for (std::size_t i = 0; i < ring.size; ++i) {
      out += ring.lines[(ring.head + i) % ring.lines.size()];
      out += '\n';
    }
  }
  if (span_source_) {
    out += "--- recent trace spans ---\n";
    for (const TraceEvent& e : span_source_()) {
      out += "at=" + std::to_string(e.at) + " hive=" +
             std::to_string(e.hive) + " " + std::string(to_string(e.kind)) +
             " bee=" + std::to_string(e.bee) + " trace=" +
             std::to_string(e.trace_id) + " aux=" + std::to_string(e.aux) +
             " aux2=" + std::to_string(e.aux2) + "\n";
    }
  }
  return out;
}

std::string FlightRecorder::render(const std::string& reason) const {
  std::string out;
  HealthSource health;
  TraceSource traces;
  {
    std::lock_guard lock(mutex_);
    out = render_locked(reason);
    health = health_source_;
    traces = trace_source_;
  }
  // The health and trace sources run outside the mutex: they may note()
  // into the recorder or take cluster locks.
  if (health) {
    out += "--- health ---\n";
    out += health();
  }
  if (traces) {
    out += "--- slowest traces ---\n";
    out += traces();
  }
  return out;
}

bool FlightRecorder::dump(const std::string& path,
                          const std::string& reason) const {
  const std::string content = render(reason);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

std::size_t FlightRecorder::line_count(HiveId hive) const {
  std::lock_guard lock(mutex_);
  for (const Ring& r : rings_) {
    if (r.hive == hive) return r.size;
  }
  return 0;
}

}  // namespace beehive
