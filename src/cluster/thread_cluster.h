// Threaded in-process cluster runtime (DESIGN.md §12).
//
// Each hive runs its own event-loop thread. Every cross-thread submission,
// immediate or delayed, is appended to the hive's one task vector under
// the hive's mutex, and the loop swaps the whole vector out once per turn
// and runs it with the lock released. Because one lock orders every
// cross-thread push, each producer's tasks run in the order it pushed
// them, and frames between two hives arrive in the order they were sent.
// A hive's posts to itself (its end-of-turn flush, its timers) take no
// lock: immediate ones run at the end of the current turn, delayed ones go
// straight into a heap the loop owns. A task stores its closure inline, so
// a hand-off allocates nothing. When a turn leaves nothing to run, the
// loop spins briefly on a "work pushed" flag (given two CPUs or more) and
// only then parks on a condition variable, so a hand-off that follows
// soon after costs no wake-up; producers notify only a parked loop. Bees
// keep the one-handler-at-a-time discipline while different hives execute
// concurrently. Frames between hives are in-memory posts, metered on the
// same ChannelMeter as the simulator. This runtime backs the runnable
// examples, the concurrency tests, bench/overload_demo and the end-to-end
// benchmark (beebench/); the other benches and the seeded experiments use
// the deterministic SimCluster.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
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

  /// Posts `fn`, any callable taking no arguments, onto a hive's loop
  /// thread (e.g. to inject messages with correct threading) and returns
  /// immediately. The task is built in place: a closure of up to
  /// `Task::kInline` bytes allocates nothing. From another thread, the post
  /// takes the hive's lock and runs on the loop's next turn, after the
  /// caller's earlier posts to that hive. From the hive's own loop thread
  /// it takes no lock and runs at the end of the current turn, or, if
  /// posted while that end-of-turn work runs, on the next turn.
  template <typename F>
  void post(HiveId hive, F&& fn) {
    push(hive, 0, std::forward<F>(fn));
  }

  /// Blocks until, at one instant, no hive has a task queued, running or
  /// timed. Quiescence for tests: it returns only at a true fixpoint when
  /// no thread outside the cluster posts meanwhile, and never while a
  /// periodic timer is armed.
  void wait_idle();

  /// One run-queue entry: a due time, an order key and a move-only,
  /// type-erased callable stored inline in `kInline` bytes. A callable that
  /// is larger, over-aligned or may throw while moving is allocated on the
  /// heap instead. A moved-from task holds nothing.
  class Task {
   public:
    /// Fits the largest closure posted in the tree, beebench's inject
    /// closure: a Hive* and two MessageEnvelopes, 168 B (176 B with the
    /// traced build's slot pointer).
    static constexpr std::size_t kInline = 192;
    template <typename F>
    static constexpr bool kStoredInline =
        sizeof(F) <= kInline && alignof(F) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<F>;

    template <typename F>
    Task(TimePoint at, std::uint64_t seq, F&& fn) : at(at), seq(seq) {
      using Fn = std::decay_t<F>;
      if constexpr (kStoredInline<Fn>) {
        ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
        ops_ = &kInlineOps<Fn>;
      } else {
        ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(fn)));
        ops_ = &kHeapOps<Fn>;
      }
    }
    Task(Task&& other) noexcept { take(other); }
    Task& operator=(Task&& other) noexcept {
      if (this != &other) {
        reset();
        take(other);
      }
      return *this;
    }
    ~Task() { reset(); }

    void operator()() { ops_->run(buf_); }
    bool operator>(const Task& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }

    TimePoint at = 0;  ///< 0 = immediate; otherwise absolute due time
    std::uint64_t seq = 0;  ///< orders delayed tasks due at one instant

   private:
    struct Ops {
      void (*run)(void* fn);
      /// Moves the callable at `from` to `to` and ends the one at `from`.
      void (*relocate)(void* to, void* from) noexcept;
      void (*destroy)(void* fn) noexcept;
    };
    template <typename Fn>
    static Fn* inline_fn(void* p) {
      return std::launder(static_cast<Fn*>(p));
    }
    template <typename Fn>
    static Fn* heap_fn(void* p) {
      return *std::launder(static_cast<Fn**>(p));
    }
    template <typename Fn>
    static constexpr Ops kInlineOps = {
        [](void* fn) { (*inline_fn<Fn>(fn))(); },
        [](void* to, void* from) noexcept {
          Fn* src = inline_fn<Fn>(from);
          ::new (to) Fn(std::move(*src));
          src->~Fn();
        },
        [](void* fn) noexcept { inline_fn<Fn>(fn)->~Fn(); }};
    template <typename Fn>
    static constexpr Ops kHeapOps = {
        [](void* fn) { (*heap_fn<Fn>(fn))(); },
        [](void* to, void* from) noexcept {
          ::new (to) Fn*(heap_fn<Fn>(from));
        },
        [](void* fn) noexcept { delete heap_fn<Fn>(fn); }};

    void take(Task& other) noexcept {
      at = other.at;
      seq = other.seq;
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
    void reset() noexcept {
      if (ops_ != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }

    const Ops* ops_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[kInline];
  };

 private:
  /// One hive's loop thread and run queue (the hive is hives_[i]).
  struct Node {
    std::thread thread;
    /// Delayed tasks, ordered by (due time, sequence). Owned by the loop
    /// thread alone; no lock.
    std::priority_queue<Task, std::vector<Task>, std::greater<>> timed;
    /// The hive's immediate posts to itself, in post order. Owned by the
    /// loop thread alone; no lock. Run at the end of the turn.
    std::vector<Task> own;
    /// Times the loop parked in cv.wait/wait_until, and nanoseconds it
    /// spun for work first. Written by the loop thread alone;
    /// beehive_runq_parks_total and beehive_runq_spin_ns_total.
    Counter parks;
    Counter spin_ns;
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
    /// Sizes of the loop's timed heap and own posts, published at the end
    /// of each turn.
    std::uint64_t timed_size = 0;
    std::uint64_t own_size = 0;
    /// Run-queue accounting (QueueStats): depth high-watermark since the
    /// last queue_stats() read, and lifetime tasks executed.
    std::uint64_t q_hwm = 0;
    std::uint64_t q_drained = 0;
  };

  /// Builds a task running `fn` after `delay` on hive `hive`'s loop: an own
  /// post without the lock, any other under the node lock.
  template <typename F>
  void push(HiveId hive, Duration delay, F&& fn);
  /// Hive `id`'s event loop; runs on that hive's thread until stop().
  void loop(HiveId id);
  /// Spins, lock released, until a push, stop(), the timed heap's head
  /// falling due, or kSpinBudget, and adds the time to node.spin_ns. True
  /// when the budget ran out: park.
  bool spin(Node& node) const;
  void pin_loop_thread(std::size_t hive_index);
  /// Nothing queued, running, timed or posted by the loop to itself on
  /// `node`. Caller holds node.mutex.
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
  /// Order keys of delayed tasks, and frame sequences when tracing.
  std::atomic<std::uint64_t> next_seq_{0};
  /// The node whose loop runs on this thread; null on other threads.
  static inline thread_local const Node* this_loop_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;
  std::once_flag pin_warning_;  // pin_loop_thread logs its first failure
  // Blame-gauge cache (see blame_scrape). Guarded by blame_mutex_.
  std::mutex blame_mutex_;
  TimePoint blame_at_ = -kSecond;
  TraceBlame blame_totals_;
  std::uint64_t blame_traces_ = 0;
};

template <typename F>
void ThreadCluster::push(HiveId hive, Duration delay, F&& fn) {
  assert(hive < nodes_.size());
  Node& node = *nodes_[hive];
  const TimePoint at = delay <= 0 ? 0 : now() + delay;
  const std::uint64_t seq =
      at == 0 ? 0 : next_seq_.fetch_add(1, std::memory_order_relaxed);
  if (this_loop_ == &node) {
    // An own post: only this thread touches `own` and `timed`.
    if (at == 0) {
      node.own.emplace_back(at, seq, std::forward<F>(fn));
    } else {
      node.timed.emplace(at, seq, std::forward<F>(fn));
    }
    return;
  }
  bool wake = false;
  {
    std::lock_guard lock(node.mutex);
    node.queue.emplace_back(at, seq, std::forward<F>(fn));
    node.pushed = true;
    node.q_hwm = std::max<std::uint64_t>(
        node.q_hwm, node.queue.size() + node.timed_size + node.own_size);
    wake = node.sleeping;
  }
  // Only a parked loop needs the syscall; a running one swaps this task
  // out on its next turn, and a spinning one sees `pushed`.
  if (wake) node.cv.notify_one();
}

}  // namespace beehive
