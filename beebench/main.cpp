// Beehive end-to-end benchmark (see README.md in this directory).
//
//   beebench        --workload <lsw_local|seattle_remote|te_fig4>
//                   --seed <n> --seconds <s>
//   beebench_traced ... [--spans <file>]
//
// The binary decides the mode: beebench prints the end-to-end metrics,
// beebench_traced (the same code with the counting operator new) the
// per-layer ones. Prints a provenance line, the workload's own report
// lines, and as its last line one JSON object: {"correct", "attempted",
// "failed", "metrics"}.
// Exits non-zero when any answer was wrong or any check failed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "alloc_counter.h"
#include "report.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: beebench --workload "
               "<lsw_local|seattle_remote|te_fig4> --seed <n> --seconds <s> "
               "[--commit <id>] [--spans <file>]\n",
               why);
  std::exit(2);
}

beebench::Options parse(int argc, char** argv) {
  beebench::Options opt;
  opt.trace = beebench::counting_allocations();
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--commit") {
        opt.commit = value;
      } else if (flag == "--spans") {
        opt.spans_path = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (opt.workload != "lsw_local" && opt.workload != "seattle_remote" &&
      opt.workload != "te_fig4") {
    usage("unknown workload");
  }
  if (!(opt.seconds >= 1.0 && opt.seconds <= 120.0)) {
    usage("--seconds must be within [1, 120]");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const beebench::Options opt = parse(argc, argv);
  beebench::set_timer_slack_ns(beebench::kTimerSlackNs);
  std::printf("%s\n", beebench::provenance(opt).c_str());
  std::fflush(stdout);
  beebench::Result result(opt.trace);
  try {
    if (opt.workload == "te_fig4") {
      beebench::run_te(opt, result);
    } else {
      beebench::run_threaded(opt, result);
    }
  } catch (const std::exception& e) {
    result.fail(std::string("exception: ") + e.what());
  }
  for (const std::string& e : result.errors()) {
    std::printf("FAILED: %s\n", e.c_str());
  }
  std::printf("%s\n", result.json().c_str());
  return result.correct() ? 0 : 1;
}
