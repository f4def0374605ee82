// The benchmark's workloads. Each builds its cluster through public APIs
// only, measures for Options::seconds, checks every answer and fills the
// Result with the metrics of its kind (end-to-end or, traced, per-layer).
#pragma once

#include "report.h"

namespace beebench {

/// Threads are pinned: a ThreadCluster's two hive loops to CPUs 0 and 1
/// (HiveConfig::pin_cpu = 0), the generator and the simulator thread to
/// this one. Unpinned, the scheduler moves them between CPUs and throughput
/// settles at a different level in each process (lsw_local spread 17%
/// between runs, te_fig4 23%); pinned, one level repeats.
inline constexpr int kGeneratorCpu = 2;

/// The benchmark sets its timer slack to 1 ns before it starts any hive,
/// and the hive loops inherit it. At the default 50 us the kernel may fire
/// the 20 us dispatch-delay timer of every emission anywhere up to 50 us
/// late, whenever it can coalesce it with another timer on the box, so
/// latency read how busy other processes kept the timers: seattle_remote's
/// p50 sat between a timer firing early and one firing late and spread
/// 0.31 over ten runs on a loaded host. At 1 ns the timer fires when due
/// and the hop costs what the program makes it cost.
inline constexpr unsigned long kTimerSlackNs = 1;

/// lsw_local and seattle_remote: closed-loop clients against a 2-hive
/// ThreadCluster.
void run_threaded(const Options& opt, Result& result);

/// te_fig4: the paper's Fig 4c/f experiment on the SimCluster.
void run_te(const Options& opt, Result& result);

}  // namespace beebench
