// Results, metric names and output format of one benchmark invocation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace beebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< measured time of the run
  bool trace = false;      ///< the traced binary: per-layer metrics
  std::string commit = "unknown";
  std::string spans_path;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One invocation's outcome: every reply checked, every metric by name.
class Result {
 public:
  /// Starts with every metric of the run's kind (end-to-end, or per-layer
  /// when traced) at 0. End-to-end metrics must all be set before printing;
  /// a per-layer metric left at 0 is a layer the workload does not load.
  explicit Result(bool traced);

  /// Sets a declared metric; throws on an undeclared name.
  void set(std::string_view name, double value);

  /// Counts `n` requests issued; `bad` of them unanswered, answered wrongly
  /// or failed inside the platform.
  void count(std::uint64_t n, std::uint64_t bad) {
    attempted_ += n;
    failed_ += bad;
  }
  /// Records a failed check; the run then exits non-zero.
  void fail(std::string why);

  /// Every answer right, every check passed, at least one request made and
  /// every metric a finite number (each end-to-end one measured).
  bool correct() const;
  const std::vector<std::string>& errors() const { return errors_; }

  /// The final line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;

 private:
  bool traced_;
  std::vector<Metric> metrics_;
  std::vector<bool> set_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// Peak resident set size of this process image, in MB.
double peak_rss_mb();

/// CPU time the calling thread has used (CLOCK_THREAD_CPUTIME_ID), in ns.
std::int64_t thread_cpu_ns();

/// CPUs this process may run on (what `nproc` prints).
int nproc();

/// Pins the calling thread to CPU `cpu` mod nproc() (best effort: a
/// refusal leaves it unpinned). Threads created afterwards inherit it.
void pin_to_cpu(int cpu);

/// Sets the calling thread's timer slack, the time by which the kernel may
/// delay its timed waits to coalesce them with other timers (best effort).
/// Threads created afterwards inherit it.
void set_timer_slack_ns(unsigned long ns);

/// The provenance line printed before every result.
std::string provenance(const Options& opt);

}  // namespace beebench
