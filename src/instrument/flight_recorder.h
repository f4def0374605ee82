// Post-mortem flight recorder: a bounded ring of recent log lines per hive
// that can be dumped to disk when something goes wrong.
//
// Traces answer "what happened across the cluster"; the flight recorder
// answers the narrower operational question "what was *this hive* doing in
// the seconds before the crash / suspicion / hang" — without keeping logs
// at debug verbosity all the time. Lines are recorded pre-formatted, so a
// dump is readable with no tooling.
//
// Dump triggers:
//   - on demand (StatusApp, tests, examples call dump()),
//   - fault-detector suspicion (examples wire on_suspect to dump()),
//   - process crash: install_crash_handler() registers SIGSEGV/SIGABRT/
//     SIGFPE handlers that write the rings with async-signal-safe IO
//     before re-raising.
#pragma once

#include <atomic>
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
  static constexpr std::size_t kDefaultMaxHives = 64;
  /// Lines each hive's ring keeps unless the constructor is told otherwise
  /// (the cluster runtimes always keep this many).
  static constexpr std::size_t kLinesPerHive = 256;

  /// `lines_per_hive` bounds each hive's ring; a ring's line storage is
  /// allocated lazily on the hive's first note(). `max_hives` bounds the
  /// number of rings — storage for the ring table is reserved up front so
  /// it never reallocates, which is what lets the crash handler walk it
  /// without locking. Notes from hives beyond the bound share the first
  /// ring rather than growing the table.
  explicit FlightRecorder(std::size_t lines_per_hive = kLinesPerHive,
                          std::size_t max_hives = kDefaultMaxHives)
      : lines_per_hive_(lines_per_hive == 0 ? 1 : lines_per_hive),
        max_hives_(max_hives == 0 ? 1 : max_hives) {
    rings_.reserve(max_hives_);
  }

  /// Appends one line to `hive`'s ring. O(1); the only allocation is the
  /// line string itself (already built by the caller) moving into the slot.
  void note(HiveId hive, std::string line);

  /// Tees the global Logger into this recorder *and* the previous sink
  /// behaviour (stderr). Lines written outside handler scope attribute to
  /// hive 0. Restore with Logger::set_sink({}).
  void tee_logger();

  /// Optional span source: when set, dumps append the most recent trace
  /// events (per hive) after the log lines. Bound by clusters to their
  /// recorders' events().
  using SpanSource = std::function<std::vector<TraceEvent>()>;
  void set_span_source(SpanSource source);

  /// Optional health source: when set, dump()/render() append its text
  /// (e.g. HealthReport::to_text()) after the log rings, so a post-mortem
  /// shows the cluster's last health picture next to what each hive was
  /// doing. Runs OUTSIDE the recorder mutex (a source that notes into the
  /// recorder must not deadlock) and never on the crash-signal path.
  using HealthSource = std::function<std::string()>;
  void set_health_source(HealthSource source);

  /// Optional trace source: when set, dump()/render() append its text
  /// (e.g. blame_summary_text() over the slowest assembled traces) after
  /// the health section, so a post-mortem names the tail-latency culprits
  /// alongside the last health picture. Same contract as the health
  /// source: runs OUTSIDE the recorder mutex, never on the crash path.
  using TraceSource = std::function<std::string()>;
  void set_trace_source(TraceSource source);

  /// Writes every hive's ring (oldest line first) to `path`, prefixed with
  /// `reason`. Returns false on IO error. Thread-safe.
  bool dump(const std::string& path, const std::string& reason) const;

  /// Renders the same content as a string (tests, /status endpoints).
  std::string render(const std::string& reason) const;

  /// Registers crash-signal handlers (SIGSEGV, SIGABRT, SIGFPE, SIGBUS)
  /// that write this recorder's rings to `path` and re-raise. Only one
  /// recorder can be the crash recorder per process; calling again
  /// rebinds. The handler writes with write(2) and reads the rings
  /// without locking — best-effort by design: a torn line in a crash dump
  /// beats a deadlock on a mutex the crashing thread may hold.
  void install_crash_handler(const std::string& path);

  std::size_t line_count(HiveId hive) const;

  /// Signal-handler path: writes the rings with open(2)/write(2), no
  /// locking, no allocation. Public only for the installed handler.
  void crash_dump_unsafe(const char* path, int sig) const;

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
  const std::size_t max_hives_;
  mutable std::mutex mutex_;
  // Reserved to max_hives_ at construction and never grown past that, so
  // element addresses and the data pointer are stable for the lifetime of
  // the recorder — the crash handler depends on this.
  std::vector<Ring> rings_;
  // Count of fully initialized rings, published with release ordering so
  // crash_dump_unsafe (which cannot take mutex_) only ever reads rings
  // whose construction completed.
  std::atomic<std::size_t> ring_count_{0};
  SpanSource span_source_;
  HealthSource health_source_;
  TraceSource trace_source_;
};

}  // namespace beehive
