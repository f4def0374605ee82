// beectl — an operator console for a running beehive cluster.
//
//   beectl top [--host H] [--port P] [--sort cost|pressure|latency|msgs]
//              [--interval SECONDS] [--once] [--json]
//   beectl trace [--host H] [--port P] [--limit N]
//
// `top` scrapes the cluster's HTTP exposition endpoint (/status.json for
// the per-hive / per-bee view, /health.json for scores and pressure) and
// renders a refreshing `top`-style table: hives ranked by health, bees
// ranked by the chosen signal. `--once` prints a single frame and exits —
// non-zero when the cluster answered but had nothing to show, so CI smoke
// steps can assert on it. `--json` (implies --once) emits the raw
// /health.json and /status.json bodies as one combined JSON object for
// scripts.
//
// `trace` scrapes /traces.json — the tail-sampled slowest traces with
// critical-path blame (DESIGN.md §11) — and renders each as an ASCII
// waterfall (critical-path segments marked *) plus a cluster-wide blame
// summary: which bucket (queue / handler / serialize / wire / retransmit
// / stall) the p99's wall time actually went to. Exits non-zero when the
// cluster has no assembled traces yet.
//
// Standalone on purpose: plain POSIX sockets and a ~150-line JSON reader,
// no link against the beehive library, so the binary works against any
// reachable exposition port. It shares only the header-only signal table
// (instrument/signals.h), so hive rows are read by the same keys the
// server writes.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "instrument/signals.h"

namespace {

using beehive::HiveSignal;
using beehive::HiveSignals;
using beehive::kHiveSignals;
using beehive::SignalKind;

// ---------------------------------------------------------------------------
// Minimal JSON: parses the subset the beehive endpoints emit (objects,
// arrays, numbers, strings, booleans, null). No unicode escapes beyond
// pass-through; numbers are kept as doubles.
// ---------------------------------------------------------------------------

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  const Json* find(const std::string& key) const {
    auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
  }
  double number(const std::string& key, double fallback = 0.0) const {
    const Json* v = find(key);
    return v != nullptr && v->kind == Kind::kNumber ? v->num : fallback;
  }
  bool boolean(const std::string& key) const {
    const Json* v = find(key);
    return v != nullptr && v->kind == Kind::kBool && v->b;
  }
  std::string text(const std::string& key,
                   const std::string& fallback = "") const {
    const Json* v = find(key);
    return v != nullptr && v->kind == Kind::kString ? v->str : fallback;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(Json& out) { return value(out) && (skip_ws(), pos_ == s_.size()); }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool literal(const char* lit) {
    std::size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        char e = s_[pos_++];
        switch (e) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u':  // keep the escape verbatim; labels here are ASCII
            out += "\\u";
            break;
          default: out += e; break;
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool value(Json& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out.kind = Json::Kind::kObject;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '}') return ++pos_, true;
      while (true) {
        skip_ws();
        std::string key;
        if (!string(key)) return false;
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
        Json v;
        if (!value(v)) return false;
        out.fields.emplace(std::move(key), std::move(v));
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') { ++pos_; continue; }
        if (s_[pos_] == '}') return ++pos_, true;
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out.kind = Json::Kind::kArray;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ']') return ++pos_, true;
      while (true) {
        Json v;
        if (!value(v)) return false;
        out.items.push_back(std::move(v));
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') { ++pos_; continue; }
        if (s_[pos_] == ']') return ++pos_, true;
        return false;
      }
    }
    if (c == '"') {
      out.kind = Json::Kind::kString;
      return string(out.str);
    }
    if (c == 't') { out.kind = Json::Kind::kBool; out.b = true; return literal("true"); }
    if (c == 'f') { out.kind = Json::Kind::kBool; out.b = false; return literal("false"); }
    if (c == 'n') { out.kind = Json::Kind::kNull; return literal("null"); }
    // number
    char* end = nullptr;
    out.num = std::strtod(s_.c_str() + pos_, &end);
    if (end == s_.c_str() + pos_) return false;
    out.kind = Json::Kind::kNumber;
    pos_ = static_cast<std::size_t>(end - s_.c_str());
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// HTTP GET (blocking, HTTP/1.0, Connection: close — matches the server).
// ---------------------------------------------------------------------------

/// Returns the response body, or nullopt-style failure via `ok`. `status`
/// receives the HTTP status code (0 when the request never completed).
std::string http_get(const std::string& host, std::uint16_t port,
                     const std::string& path, int& status) {
  status = 0;
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &res) != 0) {
    return {};
  }
  std::unique_ptr<addrinfo, decltype(&::freeaddrinfo)> guard(res,
                                                             &::freeaddrinfo);
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  if (fd < 0) return {};

  const std::string request = "GET " + path + " HTTP/1.0\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  std::size_t off = 0;
  while (off < request.size()) {
    ssize_t n = ::send(fd, request.data() + off, request.size() - off, 0);
    if (n <= 0) { ::close(fd); return {}; }
    off += static_cast<std::size_t>(n);
  }

  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  // "HTTP/1.0 200 OK\r\n...headers...\r\n\r\nbody"
  if (raw.compare(0, 5, "HTTP/") != 0) return {};
  if (auto sp = raw.find(' '); sp != std::string::npos) {
    status = std::atoi(raw.c_str() + sp + 1);
  }
  auto body_at = raw.find("\r\n\r\n");
  return body_at == std::string::npos ? std::string{}
                                      : raw.substr(body_at + 4);
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 9780;
  std::string sort = "cost";  // cost | pressure | latency | msgs
  int interval_s = 2;
  bool once = false;
  bool json = false;       // top --json: raw combined JSON, single shot
  std::size_t limit = 5;   // trace --limit: max traces rendered
};

struct HiveRow {
  std::uint64_t hive = 0;
  double score = 100.0;  ///< only /health.json carries a score
  bool suspected = false;
  HiveSignals signals;
};

/// The hive rows of /health.json or of its /status.json fallback: both
/// documents carry every kHiveSignals key.
std::vector<HiveRow> read_hive_rows(const Json& root) {
  std::vector<HiveRow> rows;
  const Json* arr = root.find("hives");
  if (arr == nullptr || arr->kind != Json::Kind::kArray) return rows;
  for (const Json& h : arr->items) {
    HiveRow row;
    row.hive = static_cast<std::uint64_t>(h.number("hive"));
    row.score = h.number("score", 100.0);
    row.suspected = h.boolean("suspected");
    for (const HiveSignal& sig : kHiveSignals) {
      const std::string key(sig.key);
      double& v = row.signals.*sig.field;
      v = h.number(key, v);
    }
    rows.push_back(row);
  }
  return rows;
}

struct ShardRow {
  std::uint64_t shard = 0;
  std::uint64_t ops = 0;
  std::uint64_t lock_waits = 0;
  std::uint64_t lock_wait_us = 0;
  std::uint64_t invalidations = 0;
};

struct BeeRow {
  std::uint64_t bee = 0;
  std::string app;
  std::uint64_t hive = 0;
  std::uint64_t cells = 0;
  std::uint64_t queue = 0;
  std::uint64_t msgs = 0;
  std::uint64_t cost_us = 0;
  std::uint64_t p99_us = 0;
  bool pinned = false;
};

double bee_sort_key(const BeeRow& b, const std::string& sort,
                    const std::map<std::uint64_t, double>& hive_pressure) {
  if (sort == "pressure") {
    auto it = hive_pressure.find(b.hive);
    return it == hive_pressure.end() ? 0.0 : it->second;
  }
  if (sort == "latency") return static_cast<double>(b.p99_us);
  if (sort == "msgs") return static_cast<double>(b.msgs);
  return static_cast<double>(b.cost_us);  // "cost"
}

/// Renders one frame. Returns the number of rows shown (hives + bees) so
/// --once can exit non-zero on an empty view.
std::size_t render_frame(const Options& opt, bool clear_screen) {
  int health_status = 0;
  int status_status = 0;
  const std::string health_body =
      http_get(opt.host, opt.port, "/health.json", health_status);
  const std::string status_body =
      http_get(opt.host, opt.port, "/status.json", status_status);

  std::vector<HiveRow> hives;
  std::vector<ShardRow> shards;
  std::map<std::uint64_t, double> hive_pressure;
  double min_score = 100.0;
  if (health_status == 200) {
    Json root;
    if (JsonParser(health_body).parse(root)) {
      min_score = root.number("min_score", 100.0);
      if (const Json* arr = root.find("registry_shards");
          arr != nullptr && arr->kind == Json::Kind::kArray) {
        for (const Json& s : arr->items) {
          ShardRow row;
          row.shard = static_cast<std::uint64_t>(s.number("shard"));
          row.ops = static_cast<std::uint64_t>(s.number("ops"));
          row.lock_waits =
              static_cast<std::uint64_t>(s.number("lock_waits"));
          row.lock_wait_us =
              static_cast<std::uint64_t>(s.number("lock_wait_us"));
          row.invalidations =
              static_cast<std::uint64_t>(s.number("invalidations"));
          shards.push_back(row);
        }
      }
      hives = read_hive_rows(root);
    }
  }

  std::vector<BeeRow> bees;
  if (status_status == 200) {
    Json root;
    if (JsonParser(status_body).parse(root)) {
      if (const Json* arr = root.find("bees");
          arr != nullptr && arr->kind == Json::Kind::kArray) {
        for (const Json& b : arr->items) {
          BeeRow row;
          row.bee = static_cast<std::uint64_t>(b.number("bee"));
          row.app = b.text("app_name");
          if (row.app.empty()) {
            // Older server: only the numeric app id is available.
            row.app = std::to_string(
                static_cast<std::uint64_t>(b.number("app")));
          }
          row.hive = static_cast<std::uint64_t>(b.number("hive"));
          row.cells = static_cast<std::uint64_t>(b.number("cells"));
          row.queue = static_cast<std::uint64_t>(b.number("queue_depth"));
          row.msgs = static_cast<std::uint64_t>(b.number("msgs_in_window"));
          row.cost_us = static_cast<std::uint64_t>(b.number("cost_us"));
          row.p99_us =
              static_cast<std::uint64_t>(b.number("handler_p99_us"));
          row.pinned = b.boolean("pinned");
          bees.push_back(row);
        }
      }
      // Health endpoint down (detached): fall back to the status report's
      // hive rows, which carry the same signals but no score.
      if (hives.empty()) hives = read_hive_rows(root);
    }
  }
  for (const HiveRow& h : hives) hive_pressure[h.hive] = h.signals.pressure;

  std::sort(hives.begin(), hives.end(),
            [](const HiveRow& a, const HiveRow& b) {
              return a.score != b.score ? a.score < b.score
                                        : a.hive < b.hive;
            });
  std::sort(bees.begin(), bees.end(),
            [&](const BeeRow& a, const BeeRow& b) {
              const double ka = bee_sort_key(a, opt.sort, hive_pressure);
              const double kb = bee_sort_key(b, opt.sort, hive_pressure);
              return ka != kb ? ka > kb : a.bee < b.bee;
            });

  if (clear_screen) std::fputs("\x1b[2J\x1b[H", stdout);
  std::printf("beectl top — %s:%u   sort=%s   min_score=%.1f", opt.host.c_str(),
              opt.port, opt.sort.c_str(), min_score);
  if (health_status != 200) {
    std::printf("   [/health.json: %s]",
                health_status == 0 ? "unreachable"
                                   : std::to_string(health_status).c_str());
  }
  if (status_status != 200) {
    std::printf("   [/status.json: %s]",
                status_status == 0 ? "unreachable"
                                   : std::to_string(status_status).c_str());
  }
  std::printf("\n\n");

  std::printf("%-5s %7s %9s %8s %9s %6s %6s %10s %8s %8s %s\n", "HIVE",
              "SCORE", "PRESSURE", "RETX", "P99_US", "RUNQ", "QUEUE",
              "COST_US", "SHED/S", "CREDITS", "");
  for (const HiveRow& h : hives) {
    const HiveSignals& sig = h.signals;
    char credits[24];
    if (sig.credits < 0) {
      std::snprintf(credits, sizeof(credits), "%8s", "-");
    } else {
      std::snprintf(credits, sizeof(credits), "%8.0f", sig.credits);
    }
    std::printf("%-5llu %7.1f %9.3f %8.3f %9.0f %6.0f %6.0f %10.0f "
                "%8.1f %s %s\n",
                static_cast<unsigned long long>(h.hive), h.score,
                sig.pressure, sig.retransmit_rate, sig.handler_p99_us,
                sig.runq_depth, sig.queue_depth, sig.cost_us, sig.shed_per_s,
                credits, h.suspected ? "SUSPECTED" : "");
  }
  if (hives.empty()) std::printf("  (no hive rows yet)\n");

  if (!shards.empty()) {
    // Registry contention by shard (DESIGN.md §13): a single hot shard
    // (lock waits piling up) is the signal to re-hash or raise the count.
    std::printf("\n%-5s %12s %8s %10s %8s\n", "SHARD", "OPS", "LOCKW",
                "WAIT_US", "INVAL");
    for (const ShardRow& s : shards) {
      std::printf("%-5llu %12llu %8llu %10llu %8llu\n",
                  static_cast<unsigned long long>(s.shard),
                  static_cast<unsigned long long>(s.ops),
                  static_cast<unsigned long long>(s.lock_waits),
                  static_cast<unsigned long long>(s.lock_wait_us),
                  static_cast<unsigned long long>(s.invalidations));
    }
  }

  std::printf("\n%-20s %-18s %5s %6s %6s %8s %10s %9s %s\n", "BEE", "APP",
              "HIVE", "CELLS", "QUEUE", "MSGS/W", "COST_US", "P99_US", "");
  for (const BeeRow& b : bees) {
    std::printf("%-20llu %-18.18s %5llu %6llu %6llu %8llu %10llu %9llu %s\n",
                static_cast<unsigned long long>(b.bee), b.app.c_str(),
                static_cast<unsigned long long>(b.hive),
                static_cast<unsigned long long>(b.cells),
                static_cast<unsigned long long>(b.queue),
                static_cast<unsigned long long>(b.msgs),
                static_cast<unsigned long long>(b.cost_us),
                static_cast<unsigned long long>(b.p99_us),
                b.pinned ? "pinned" : "");
  }
  if (bees.empty()) std::printf("  (no bee rows yet)\n");
  std::fflush(stdout);
  return hives.size() + bees.size();
}

/// `top --json`: one combined machine-readable snapshot. The endpoint
/// bodies are already JSON, so they are embedded verbatim — scripts get
/// exactly what the server said, not this tool's re-interpretation.
int render_top_json(const Options& opt) {
  int health_status = 0;
  int status_status = 0;
  const std::string health_body =
      http_get(opt.host, opt.port, "/health.json", health_status);
  const std::string status_body =
      http_get(opt.host, opt.port, "/status.json", status_status);
  std::string out = "{\"health\": ";
  out += health_status == 200 ? health_body : std::string("null");
  out += ", \"status\": ";
  out += status_status == 200 ? status_body : std::string("null");
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
  return (health_status == 200 || status_status == 200) ? 0 : 2;
}

// ---------------------------------------------------------------------------
// beectl trace — waterfall + blame rendering of /traces.json
// ---------------------------------------------------------------------------

constexpr int kWaterfallWidth = 44;

/// One waterfall lane: offset spaces + a duration bar ('#', instants '|')
/// positioned proportionally inside the trace's [0, e2e] window.
std::string waterfall_bar(double t_us, double dur_us, double e2e_us) {
  std::string lane(kWaterfallWidth, ' ');
  if (e2e_us <= 0) return lane;
  int off = static_cast<int>(t_us / e2e_us * kWaterfallWidth);
  off = std::max(0, std::min(off, kWaterfallWidth - 1));
  if (dur_us <= 0) {
    lane[static_cast<std::size_t>(off)] = '|';
    return lane;
  }
  int len = static_cast<int>(dur_us / e2e_us * kWaterfallWidth + 0.5);
  len = std::max(1, std::min(len, kWaterfallWidth - off));
  for (int i = 0; i < len; ++i) lane[static_cast<std::size_t>(off + i)] = '#';
  return lane;
}

const char* const kBlameBuckets[] = {"queue_us",      "handler_us",
                                     "serialize_us",  "wire_us",
                                     "retransmit_us", "stall_us"};

void print_blame_line(const char* prefix, const Json& blame, double denom) {
  std::printf("%s", prefix);
  for (const char* bucket : kBlameBuckets) {
    const double us = blame.number(bucket);
    std::string name(bucket);
    name.resize(name.size() - 3);  // drop "_us"
    std::printf(" %s=%.0fus", name.c_str(), us);
    if (denom > 0 && us > 0) std::printf(" (%.0f%%)", us / denom * 100.0);
  }
  std::printf("\n");
}

int run_trace(const Options& opt) {
  int status = 0;
  const std::string body =
      http_get(opt.host, opt.port, "/traces.json", status);
  if (status != 200) {
    std::fprintf(stderr, "beectl trace: GET /traces.json -> %s\n",
                 status == 0 ? "unreachable"
                             : std::to_string(status).c_str());
    return 1;
  }
  Json root;
  if (!JsonParser(body).parse(root)) {
    std::fprintf(stderr, "beectl trace: malformed /traces.json body\n");
    return 1;
  }
  const Json* traces = root.find("traces");
  if (traces == nullptr || traces->kind != Json::Kind::kArray ||
      traces->items.empty()) {
    std::printf("no assembled traces yet — the tail sampler retains only "
                "slow, shed or failed traces\n");
    return 2;
  }

  std::printf("beectl trace — %s:%u   %zu assembled trace(s), slowest "
              "first\n",
              opt.host.c_str(), opt.port, traces->items.size());
  if (const Json* totals = root.find("blame_totals"); totals != nullptr) {
    double denom = 0;
    for (const char* bucket : kBlameBuckets) denom += totals->number(bucket);
    print_blame_line("cluster blame (slowest traces):", *totals, denom);
  }

  std::size_t shown = 0;
  for (const Json& t : traces->items) {
    if (shown++ == opt.limit) {
      std::printf("\n... %zu more (raise --limit)\n",
                  traces->items.size() - opt.limit);
      break;
    }
    const double e2e = t.number("e2e_us");
    std::printf("\ntrace %.0f  e2e=%.0fus  hops=%.0f  spans=%.0f%s%s\n",
                t.number("trace_id"), e2e, t.number("hops"),
                t.number("spans"), t.boolean("shed") ? "  SHED" : "",
                t.boolean("failed") ? "  FAILED" : "");
    if (const Json* blame = t.find("blame"); blame != nullptr) {
      print_blame_line("  blame:", *blame, e2e);
      const double un = t.number("unattributed_us");
      if (un > 0) std::printf("  unattributed: %.0fus\n", un);
    }
    if (const Json* rows = t.find("rows");
        rows != nullptr && rows->kind == Json::Kind::kArray) {
      std::printf("  %8s %8s %-5s %-*s %s\n", "T_US", "DUR_US", "HIVE",
                  kWaterfallWidth, "WATERFALL", "SEGMENT (* = critical path)");
      for (const Json& r : rows->items) {
        const std::string lane =
            waterfall_bar(r.number("t_us"), r.number("dur_us"), e2e);
        std::printf("  %8.0f %8.0f %-5.0f %s %c%s %s\n", r.number("t_us"),
                    r.number("dur_us"), r.number("hive"), lane.c_str(),
                    r.boolean("critical") ? '*' : ' ',
                    r.text("kind").c_str(), r.text("label").c_str());
      }
    }
  }
  std::fflush(stdout);
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s top [--host H] [--port P] "
               "[--sort cost|pressure|latency|msgs] [--interval SECONDS] "
               "[--once] [--json]\n"
               "       %s trace [--host H] [--port P] [--limit N]\n"
               "\n"
               "  top: --sort pressure ranks bees by their hive's\n"
               "  queue-pressure score. Hive rows also show the\n"
               "  overload-control fields (DESIGN.md §10): SHED/S\n"
               "  (messages/frames dropped per second by shed policies),\n"
               "  CREDITS (tightest remaining link credit; '-' =\n"
               "  uncredited links). Sourced from /health.json with\n"
               "  /status.json as fallback. --json emits both raw\n"
               "  bodies as one JSON object and exits.\n"
               "\n"
               "  trace: renders /traces.json (DESIGN.md §11) — the\n"
               "  tail-sampled slowest traces as ASCII waterfalls with\n"
               "  critical-path blame per bucket (queue, handler,\n"
               "  serialize, wire, retransmit, stall). Exits 2 when no\n"
               "  traces are assembled yet.\n",
               argv0, argv0);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string cmd = "top";
  int i = 1;
  if (i < argc && argv[i][0] != '-') cmd = argv[i++];
  if (cmd != "top" && cmd != "trace") return usage(argv[0]);
  for (; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--host") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.host = v;
    } else if (std::strcmp(argv[i], "--port") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.port = static_cast<std::uint16_t>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--sort") == 0) {
      const char* v = next();
      if (v == nullptr ||
          (std::strcmp(v, "cost") != 0 && std::strcmp(v, "pressure") != 0 &&
           std::strcmp(v, "latency") != 0 && std::strcmp(v, "msgs") != 0)) {
        return usage(argv[0]);
      }
      opt.sort = v;
    } else if (std::strcmp(argv[i], "--interval") == 0) {
      const char* v = next();
      if (v == nullptr || std::atoi(v) <= 0) return usage(argv[0]);
      opt.interval_s = std::atoi(v);
    } else if (std::strcmp(argv[i], "--once") == 0) {
      opt.once = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json = true;
      opt.once = true;
    } else if (std::strcmp(argv[i], "--limit") == 0) {
      const char* v = next();
      if (v == nullptr || std::atoi(v) <= 0) return usage(argv[0]);
      opt.limit = static_cast<std::size_t>(std::atoi(v));
    } else {
      return usage(argv[0]);
    }
  }

  if (cmd == "trace") return run_trace(opt);
  if (opt.json) return render_top_json(opt);
  if (opt.once) {
    return render_frame(opt, /*clear_screen=*/false) == 0 ? 2 : 0;
  }
  while (true) {
    render_frame(opt, /*clear_screen=*/true);
    std::this_thread::sleep_for(std::chrono::seconds(opt.interval_s));
  }
}
