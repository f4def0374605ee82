// Minimal leveled logger. Deliberately tiny: the platform's interesting
// observability lives in instrument/ (per-bee metrics and traces), not in
// log lines. A line is "[LEVEL] message".
#pragma once

#include <atomic>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>

namespace beehive {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError };

class Logger {
 public:
  static Logger& instance();

  // The level is mutated by tests and examples after hive threads have
  // started; an atomic makes that setter race benign (relaxed is fine: a
  // stale read only delays a verbosity change by one line).
  void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }
  bool enabled(LogLevel level) const { return level >= this->level(); }

  /// Receives every formatted line (after level filtering). Replaces the
  /// default stderr sink; tests capture lines with this.
  using Sink = std::function<void(LogLevel, const std::string& line)>;

  /// Installs `sink` (empty restores the stderr default). Swapped under
  /// the write mutex, so it is safe while other threads are logging.
  void set_sink(Sink sink);

  /// Thread-safe write of one formatted line to the sink (default stderr).
  void write(LogLevel level, const std::string& message);

 private:
  std::atomic<LogLevel> level_{LogLevel::kWarn};
  Sink sink_;  // guarded by the write mutex
};

/// `s` as the contents of a JSON string: quote, backslash and every control
/// character escaped. The one escaper behind every JSON document the
/// platform writes (traces, blame reports, /status.json).
std::string json_escape(std::string_view s);

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
