#include "report.h"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "alloc_counter.h"

namespace beebench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json (run.py checks every result against it).
constexpr MetricDef kEndToEnd[] = {
    {"latency_p50_us", "us"},
    {"cpu_ns_per_msg", "ns"},
    {"setup_s", "s"},
    {"rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"requests_per_s", "req/s"},
    {"cluster.post_ns", "ns"},
    {"cluster.runq_wait_us_p50", "us"},
    {"cluster.runq_wait_us_p90", "us"},
    {"cluster.runq_overflowed", "count"},
    {"cluster.hive_busy_frac", "ratio"},
    {"cluster.hive_cpu_ns_per_req", "ns"},
    {"core.inject_us_p50", "us"},
    {"core.reply_us_p50", "us"},
    {"core.local_share", "ratio"},
    {"apps.map_ns", "ns"},
    {"apps.handler_ns", "ns"},
    {"state.txn_rmw_ns", "ns"},
    {"state.txn_read_ns", "ns"},
    {"state.value_bytes", "B"},
    {"registry.client_lookups_per_msg", "ratio"},
    {"registry.client_hit_rate", "ratio"},
    {"registry.resolve_ns", "ns"},
    {"registry.ops", "count"},
    {"registry.lock_wait_us", "us"},
    {"msg.encode_ns", "ns"},
    {"msg.decode_ns", "ns"},
    {"msg.envelope_bytes", "B"},
    {"channel.frames_per_req", "ratio"},
    {"channel.msgs_per_frame", "ratio"},
    {"channel.bytes_per_frame", "B"},
    {"channel.wire_bytes_per_req", "B"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.seconds_per_s", "s/s"},
    {"te.control_kbps", "KB/s"},
    {"placement.round_us_p50", "us"},
    {"placement.moves", "count"},
    {"migration.count", "count"},
    {"migration.aborts", "count"},
    {"migration.snapshot_ns", "ns"},
    {"alloc.per_req", "count"},
    {"alloc.per_op.map", "count"},
    {"alloc.per_op.handler", "count"},
    {"alloc.per_op.txn_rmw", "count"},
    {"alloc.per_op.txn_read", "count"},
    {"alloc.per_op.encode", "count"},
    {"alloc.per_op.decode", "count"},
    {"alloc.per_op.resolve", "count"},
    {"alloc.per_op.snapshot", "count"},
    {"ledger.residual_ns", "ns"},
    {"trace.overhead_pct", "%"},
};

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Result::Result(bool traced) : traced_(traced) {
  auto add = [this](const auto& defs) {
    for (const MetricDef& d : defs) metrics_.push_back({d.name, 0.0, d.unit});
  };
  if (traced) {
    add(kPerLayer);
  } else {
    add(kEndToEnd);
  }
  set_.assign(metrics_.size(), false);
}

void Result::set(std::string_view name, double value) {
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (metrics_[i].name == name) {
      metrics_[i].value = value;
      set_[i] = true;
      return;
    }
  }
  throw std::logic_error("undeclared metric " + std::string(name));
}

void Result::fail(std::string why) { errors_.push_back(std::move(why)); }

bool Result::correct() const {
  if (!errors_.empty() || failed_ > 0 || attempted_ == 0) return false;
  // An unmeasured end-to-end metric or a non-finite value is a bench bug:
  // the run fails rather than print a made-up number.
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (!std::isfinite(metrics_[i].value) || (!traced_ && !set_[i])) {
      return false;
    }
  }
  return true;
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": ";
  out += std::to_string(attempted_ == 0 ? 1 : attempted_);
  out += ", \"failed\": ";
  out += std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += '"';
    out += json_escape(m.name);
    out += "\": {\"value\": ";
    out += number(std::isfinite(m.value) ? m.value : 0.0);
    out += ", \"unit\": \"";
    out += json_escape(m.unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  // VmHWM belongs to this process image. getrusage's ru_maxrss would not
  // do: it survives execve, so under a launcher it reads the launcher's
  // peak whenever that is the larger (python3 run.py: about 18 MB).
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0.0) return kib / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % std::max(1, nproc()), &set);
  sched_setaffinity(0, sizeof set, &set);
}

void set_timer_slack_ns(unsigned long ns) {
  prctl(PR_SET_TIMERSLACK, ns, 0UL, 0UL, 0UL);
}

std::string provenance(const Options& opt) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "provenance: workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%d hw_threads=%u build=%s commit=%s "
                "counting_allocator=%d pinned=hives:0,1+bench:2 "
                "timer_slack_ns=%ld",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, nproc(),
                std::thread::hardware_concurrency(), BEEBENCH_BUILD_TYPE,
                opt.commit.c_str(), counting_allocations() ? 1 : 0,
                static_cast<long>(prctl(PR_GET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL)));
  return buf;
}

}  // namespace beebench
