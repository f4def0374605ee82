// Minimal leveled logger. Deliberately tiny: the platform's interesting
// observability lives in instrument/ (per-bee metrics and traces), not in
// log lines — but lines can be emitted as key=value or JSON so external
// tooling can join them with trace ids.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>

namespace beehive {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError };

/// Line layout. kPlain is the human default; kKeyValue and kJson are
/// machine-parseable structured modes that also carry the trace id of the
/// handler the line was written from (when one is in scope).
enum class LogFormat { kPlain = 0, kKeyValue, kJson };

class Logger {
 public:
  static Logger& instance();

  // Level and format are mutated by tests and examples after hive threads
  // have started; atomics make those setter races benign (relaxed is fine:
  // a stale read only delays a verbosity change by one line).
  void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }
  bool enabled(LogLevel level) const { return level >= this->level(); }

  void set_format(LogFormat format) {
    format_.store(format, std::memory_order_relaxed);
  }
  LogFormat format() const { return format_.load(std::memory_order_relaxed); }

  /// Receives every formatted line (after level filtering). Replaces the
  /// default stderr sink; tests capture lines with this and the
  /// FlightRecorder tees them into its ring.
  using Sink = std::function<void(LogLevel, const std::string& line)>;

  /// Installs `sink` (empty restores the stderr default). Swapped under
  /// the write mutex, so it is safe while other threads are logging.
  void set_sink(Sink sink);

  /// Thread-safe write of one formatted line to the sink (default stderr).
  void write(LogLevel level, const std::string& message);

 private:
  std::atomic<LogLevel> level_{LogLevel::kWarn};
  std::atomic<LogFormat> format_{LogFormat::kPlain};
  Sink sink_;  // guarded by the write mutex
};

/// `s` as the contents of a JSON string: quote, backslash and every control
/// character escaped. The one escaper behind every JSON document the
/// platform writes (JSON log lines, traces, blame reports, /status.json).
std::string json_escape(std::string_view s);

/// The trace context of the handler currently running on this thread
/// (0 = none). Installed by the hive around every handler invocation so
/// application log lines can be correlated with trace spans.
struct CurrentTrace {
  std::uint64_t id = 0;
  std::uint32_t depth = 0;
};
const CurrentTrace& current_trace();

/// RAII guard installing a trace context for the current thread; restores
/// the previous one on destruction (handlers never nest, but timers and
/// platform paths may interleave scopes on one hive thread).
class TraceLogScope {
 public:
  TraceLogScope(std::uint64_t trace_id, std::uint32_t depth);
  ~TraceLogScope();
  TraceLogScope(const TraceLogScope&) = delete;
  TraceLogScope& operator=(const TraceLogScope&) = delete;

 private:
  CurrentTrace prev_;
};

namespace internal {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { Logger::instance().write(level_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace internal

#define BH_LOG(level)                                             \
  if (!::beehive::Logger::instance().enabled(level)) {            \
  } else                                                          \
    ::beehive::internal::LogLine(level)

#define BH_TRACE BH_LOG(::beehive::LogLevel::kTrace)
#define BH_DEBUG BH_LOG(::beehive::LogLevel::kDebug)
#define BH_INFO BH_LOG(::beehive::LogLevel::kInfo)
#define BH_WARN BH_LOG(::beehive::LogLevel::kWarn)
#define BH_ERROR BH_LOG(::beehive::LogLevel::kError)

}  // namespace beehive
