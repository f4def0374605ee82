// Post-mortem flight recorder: a bounded ring of recent log lines per hive
// that can be dumped to disk when something goes wrong.
//
// Traces answer "what happened across the cluster"; the flight recorder
// answers the narrower operational question "what was *this hive* doing in
// the seconds before it was suspected or hung" — without keeping logs at
// debug verbosity all the time. Lines are recorded pre-formatted, so a
// dump is readable with no tooling.
//
// Dump triggers:
//   - on demand (tests and examples call dump()),
//   - fault-detector suspicion (examples wire on_suspect to dump()).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "instrument/trace.h"
#include "util/types.h"

namespace beehive {

class FlightRecorder {
 public:
  /// Lines each hive's ring keeps unless the constructor is told otherwise
  /// (the cluster runtimes always keep this many).
  static constexpr std::size_t kLinesPerHive = 256;

  /// `lines_per_hive` bounds each hive's ring. Every hive gets its own
  /// ring, allocated on the hive's first note().
  explicit FlightRecorder(std::size_t lines_per_hive = kLinesPerHive)
      : lines_per_hive_(lines_per_hive == 0 ? 1 : lines_per_hive) {}

  /// Appends one line to `hive`'s ring. Past the hive's first note, the
  /// only allocation is the line string itself (already built by the
  /// caller) moving into the slot.
  void note(HiveId hive, std::string line);

  /// Optional span source: when set, dumps append the most recent trace
  /// events (per hive) after the log lines. Bound by clusters to their
  /// recorders' events().
  using SpanSource = std::function<std::vector<TraceEvent>()>;
  void set_span_source(SpanSource source);

  /// Optional health source: when set, dump()/render() append its text
  /// (e.g. HealthReport::to_text()) after the log rings, so a post-mortem
  /// shows the cluster's last health picture next to what each hive was
  /// doing. Runs OUTSIDE the recorder mutex (a source that notes into the
  /// recorder must not deadlock).
  using HealthSource = std::function<std::string()>;
  void set_health_source(HealthSource source);

  /// Optional trace source: when set, dump()/render() append its text
  /// (e.g. blame_summary_text() over the slowest assembled traces) after
  /// the health section, so a post-mortem names the tail-latency culprits
  /// alongside the last health picture. Same contract as the health
  /// source: runs OUTSIDE the recorder mutex.
  using TraceSource = std::function<std::string()>;
  void set_trace_source(TraceSource source);

  /// Writes every hive's ring (oldest line first) to `path`, prefixed with
  /// `reason`. Returns false on IO error. Thread-safe.
  bool dump(const std::string& path, const std::string& reason) const;

  /// Renders the same content as a string (tests, /status endpoints).
  std::string render(const std::string& reason) const;

  std::size_t line_count(HiveId hive) const;

 private:
  struct Ring {
    HiveId hive = 0;
    std::vector<std::string> lines;  // capacity-bounded circular buffer
    std::size_t head = 0;
    std::size_t size = 0;
  };

  Ring& ring_for_locked(HiveId hive);
  std::string render_locked(const std::string& reason) const;

  const std::size_t lines_per_hive_;
  mutable std::mutex mutex_;
  std::vector<Ring> rings_;  // in order of each hive's first note()
  SpanSource span_source_;
  HealthSource health_source_;
  TraceSource trace_source_;
};

}  // namespace beehive
