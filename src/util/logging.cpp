#include "util/logging.h"

#include <cstdio>
#include <mutex>

#include "util/types.h"

namespace beehive {

namespace {
const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

std::mutex g_log_mutex;
}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::set_sink(Sink sink) {
  std::lock_guard lock(g_log_mutex);
  sink_ = std::move(sink);
}

void Logger::write(LogLevel level, const std::string& message) {
  const std::string line =
      std::string("[") + level_name(level) + "] " + message;
  std::lock_guard lock(g_log_mutex);
  if (sink_) {
    sink_(level, line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

std::string to_string_bee(BeeId bee) {
  if (bee == kNoBee) return "bee(io)";
  return "bee(" + std::to_string(bee_home_hive(bee)) + "/" +
         std::to_string(bee_counter(bee)) + ")";
}

}  // namespace beehive
