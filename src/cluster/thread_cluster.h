// Threaded in-process cluster runtime (DESIGN.md §12).
//
// Each hive runs its own event-loop thread with one task queue: a vector
// guarded by the hive's mutex. Every cross-thread submission, immediate or
// delayed, is appended under that lock, and the loop swaps the whole
// vector out once per turn and runs it with the lock released. Because one
// lock orders every push, each producer's tasks run in the order it pushed
// them, and frames between two hives arrive in the order they were sent.
// Delayed tasks are filed into a heap owned by the loop thread. When a turn
// leaves the queue empty, the loop spins briefly on a "work pushed" flag
// and only then parks on a condition variable, so a hand-off that follows
// soon after costs no wake-up; producers notify only a parked loop. Bees
// keep the one-handler-at-a-time discipline while different hives execute
// concurrently. Frames between hives are in-memory posts, metered on the
// same ChannelMeter as the simulator. This runtime backs the runnable
// examples, the concurrency tests, bench/overload_demo and the end-to-end
// benchmark (beebench/); the other benches and the seeded experiments use
// the deterministic SimCluster.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "instrument/blame.h"
#include "instrument/registry.h"

namespace beehive {

/// ThreadCluster takes the same ClusterConfig as SimCluster. The end-to-end
/// benchmark (beebench/threaded.cpp) still spells it by this name.
using ThreadClusterConfig = ClusterConfig;

class ThreadCluster final : public ClusterBase {
 public:
  ThreadCluster(ClusterConfig config, const AppSet& apps);
  ~ThreadCluster() override;

  /// Starts every hive's loop thread and arms timers.
  void start();

  /// Stops delivering, drains nothing further, joins all threads.
  /// Idempotent.
  void stop();

  bool running() const { return running_.load(); }

  // -- RuntimeEnv -----------------------------------------------------------

  TimePoint now() const override;
  void schedule_after(HiveId hive, Duration delay,
                      std::function<void()> fn) override;
  void send_frame(HiveId from, HiveId to, Bytes frame) override;
  Xoshiro256& rng() override { return rng_; }
  QueueStats queue_stats(HiveId hive) override;

  // -- Access ---------------------------------------------------------------

  /// The `top_n` slowest assembled traces with critical-path blame
  /// (instrument/blame.h). Safe from any thread: while the cluster runs,
  /// each recorder is snapshotted on its own loop thread (posted task,
  /// bounded wait); a wedged hive is skipped rather than blocking the
  /// caller. When stopped, recorders are read directly.
  std::vector<AssembledTrace> assembled_traces(std::size_t top_n = 20);
  /// The /traces.json body for those traces.
  std::string traces_json(std::size_t top_n = 20);

  /// Every hive's health snapshot (instrument/health.h), as of each hive's
  /// last metrics report. `suspected` marks hives the caller's failure
  /// detector currently suspects. Safe from any thread while hives run —
  /// reads only scrape-safe atomics.
  HealthReport health(const std::vector<HiveId>& suspected = {}) const;
  std::string health_json(const std::vector<HiveId>& suspected = {}) const;

  /// Posts `fn` onto a hive's loop thread (e.g. to inject messages with
  /// correct threading) and returns immediately.
  void post(HiveId hive, std::function<void()> fn);

  /// Blocks until, at one instant, no hive has a task queued, running or
  /// timed. Quiescence for tests: it returns only at a true fixpoint when
  /// no thread outside the cluster posts meanwhile, and never while a
  /// periodic timer is armed.
  void wait_idle();

 private:
  struct Task {
    TimePoint at = 0;  ///< 0 = immediate; otherwise absolute due time
    std::uint64_t seq = 0;
    std::function<void()> fn;
    bool operator>(const Task& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  /// One hive's loop thread and run queue (the hive is hives_[i]).
  struct Node {
    std::thread thread;
    /// Delayed tasks, ordered by (due time, sequence). Owned by the loop
    /// thread alone; no lock.
    std::priority_queue<Task, std::vector<Task>, std::greater<>> timed;
    /// Times the loop parked in cv.wait/wait_until once its spin ran out.
    /// Written by the loop thread alone; beehive_runq_parks_total.
    Counter parks;
    /// Guards every field below it: the queue, the park and the idle state.
    std::mutex mutex;
    std::condition_variable cv;       ///< wakes the loop (work arrived, stop)
    std::condition_variable idle_cv;  ///< signals quiescence to wait_idle()
    /// Every cross-thread submission, immediate and delayed, in push order.
    /// The loop swaps the whole vector out once per turn.
    std::vector<Task> queue;
    /// Set by every push and cleared at the swap, both under the lock, so
    /// it equals !queue.empty() whenever the lock is free. The loop spins
    /// on it, lock released, before it parks.
    std::atomic<bool> pushed{false};
    bool sleeping = false;  ///< loop parked in cv.wait: producers notify
    bool busy = false;      ///< a swapped-out batch has not finished running
    /// Size of the loop's timed heap, published at the end of each turn.
    std::uint64_t timed_size = 0;
    /// Run-queue accounting (QueueStats): depth high-watermark since the
    /// last queue_stats() read, and lifetime tasks executed.
    std::uint64_t q_hwm = 0;
    std::uint64_t q_drained = 0;
  };

  /// Hive `id`'s event loop; runs on that hive's thread until stop().
  void loop(HiveId id);
  /// Spins, lock released, until a push, stop(), the timed heap's head
  /// falling due, or kSpinBudget. True when the budget ran out: park.
  bool spin(const Node& node) const;
  void pin_loop_thread(std::size_t hive_index);
  /// Nothing queued, running or timed on `node`. Caller holds node.mutex.
  static bool node_idle(const Node& node);

  /// Gathers every recorder's ring + tail-retained spans, thread-safely
  /// (see assembled_traces).
  std::vector<TraceEvent> snapshot_trace_events();

  /// Scrape-time blame totals, recomputed at most once per second (trace
  /// assembly walks every retained trace — too heavy to run per scrape).
  TraceBlame blame_scrape(std::uint64_t* n_traces);

  Xoshiro256 rng_;  // guarded by rng_mutex_
  /// Also guards the fault plan's decide()/rpc_lost() calls.
  std::mutex rng_mutex_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> next_seq_{0};
  std::chrono::steady_clock::time_point epoch_;
  std::once_flag pin_warning_;  // pin_loop_thread logs its first failure
  // Blame-gauge cache (see blame_scrape). Guarded by blame_mutex_.
  std::mutex blame_mutex_;
  TimePoint blame_at_ = -kSecond;
  TraceBlame blame_totals_;
  std::uint64_t blame_traces_ = 0;
};

}  // namespace beehive
