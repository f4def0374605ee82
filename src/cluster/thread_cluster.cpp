#include "cluster/thread_cluster.h"

#include <algorithm>
#include <cassert>
#include <future>
#include <string>

#include "util/logging.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>

#include <cerrno>
#include <cstring>
#endif

namespace beehive {

namespace {
// How long a loop whose turn left its queue empty spins before it parks
// (DESIGN.md §12). A hand-off that arrives within it costs no futex wake
// and no wake-up of an idle CPU. The smallest budget that kept the
// benchmark's latency gain; a longer one only burns CPU on idle loops.
constexpr std::chrono::microseconds kSpinBudget{20};

// One busy-wait step: lets a sibling hyperthread run and saves power.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}
}  // namespace

#if defined(__linux__)
namespace {
// The CPUs the process was started on (its taskset mask, inside its cgroup
// cpuset), read before main() runs. Pinning indexes into this set rather
// than into the mask of the thread that starts a cluster: that thread may
// already be pinned to a CPU of its own, which the loops must not inherit.
const cpu_set_t kStartupCpus = [] {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
  return set;
}();
}  // namespace
#endif

ThreadCluster::ThreadCluster(ClusterConfig config, const AppSet& apps)
    : ClusterBase(config),
      rng_(config.seed),
      epoch_(std::chrono::steady_clock::now()) {
  // No span source here: the per-hive trace recorders are single-writer
  // and unlocked, so a dump from an arbitrary thread must not read them.
  // The trace source IS safe — assembled_traces() snapshots each recorder
  // on its own loop thread with a bounded wait.
  if (recorder_ && config_.tracing) {
    recorder_->set_trace_source(
        [this] { return blame_summary_text(assembled_traces(8)); });
  }
  build_hives(apps);
  nodes_.reserve(config_.n_hives);
  for (std::size_t i = 0; i < config_.n_hives; ++i) {
    nodes_.push_back(std::make_unique<Node>());
    if (metrics_) {
      metrics_->expose_counter(
          "beehive_runq_parks_total", {{"hive", std::to_string(i)}},
          &nodes_.back()->parks,
          "Times this hive's loop blocked on its condition variable after "
          "spinning with nothing to run.");
    }
  }
  if (metrics_ && config_.tracing) {
    // Critical-path blame totals over the slowest assembled traces
    // (DESIGN.md §11). Assembly is too heavy per scrape; blame_scrape
    // caches for ~1s. Callbacks run with the registry mutex released.
    struct Bucket {
      const char* name;
      std::uint64_t TraceBlame::* field;
    };
    static constexpr Bucket kBuckets[] = {
        {"queue", &TraceBlame::queue_us},
        {"handler", &TraceBlame::handler_us},
        {"serialize", &TraceBlame::serialize_us},
        {"wire", &TraceBlame::wire_us},
        {"retransmit", &TraceBlame::retransmit_us},
        {"stall", &TraceBlame::stall_us},
    };
    for (const Bucket& b : kBuckets) {
      metrics_->gauge_fn(
          "beehive_blame_us", {{"bucket", b.name}},
          [this, field = b.field] {
            std::uint64_t n = 0;
            return static_cast<double>(blame_scrape(&n).*field);
          },
          "Critical-path microseconds attributed to this bucket across "
          "the slowest assembled traces.");
    }
    metrics_->gauge_fn(
        "beehive_blame_traces", {},
        [this] {
          std::uint64_t n = 0;
          blame_scrape(&n);
          return static_cast<double>(n);
        },
        "Assembled traces behind the beehive_blame_us totals.");
  }
  // Registry RPC attempts traverse the same lossy network as frames. The
  // hook runs under the registry mutex on arbitrary hive threads, so the
  // RNG (and the plan's stats) need the rng mutex.
  registry_.set_rpc_fault_hook([this](HiveId requester) {
    if (!faults_.active()) return false;
    std::lock_guard lock(rng_mutex_);
    return faults_.rpc_lost(requester, kRegistryHive, rng_);
  });
}

ThreadCluster::~ThreadCluster() { stop(); }

TimePoint ThreadCluster::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void ThreadCluster::start() {
  if (running_.exchange(true)) return;
  for (HiveId id = 0; id < nodes_.size(); ++id) {
    nodes_[id]->thread = std::thread([this, id]() { loop(id); });
  }
  for (const auto& hive : hives_) {
    // Arm timers on the hive's own thread.
    post(hive->id(), [h = hive.get()]() { h->start(); });
  }
}

void ThreadCluster::stop() {
  if (!running_.exchange(false)) return;
  for (auto& node : nodes_) {
    std::lock_guard lock(node->mutex);
    node->cv.notify_all();
    node->idle_cv.notify_all();  // release wait_idle() callers
  }
  for (auto& node : nodes_) {
    if (node->thread.joinable()) node->thread.join();
  }
}

void ThreadCluster::post(HiveId hive, std::function<void()> fn) {
  schedule_after(hive, 0, std::move(fn));
}

void ThreadCluster::schedule_after(HiveId hive, Duration delay,
                                   std::function<void()> fn) {
  assert(hive < nodes_.size());
  Node& node = *nodes_[hive];
  Task task;
  task.at = delay <= 0 ? 0 : now() + delay;
  task.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  task.fn = std::move(fn);
  bool wake = false;
  {
    std::lock_guard lock(node.mutex);
    node.queue.push_back(std::move(task));
    node.pushed = true;
    node.q_hwm = std::max<std::uint64_t>(
        node.q_hwm, node.queue.size() + node.timed_size);
    wake = node.sleeping;
  }
  // Only a parked loop needs the syscall; a running one swaps this task
  // out on its next turn, and a spinning one sees `pushed`.
  if (wake) node.cv.notify_one();
}

void ThreadCluster::send_frame(HiveId from, HiveId to, Bytes frame) {
  assert(from < nodes_.size() && to < nodes_.size());
  meter_.record(from, to, frame.size(), now());
  // Channel transit spans paired by a cluster-unique frame sequence. The
  // send side records on the source hive's recorder (we are on its loop
  // thread), the receive side on the target's — each recorder stays
  // single-writer.
  const std::uint64_t frame_seq = next_seq_.fetch_add(1);
  const auto kind = frame.empty()
                        ? MsgTypeId{0}
                        : static_cast<MsgTypeId>(
                              static_cast<unsigned char>(frame[0]));
  const auto bytes = static_cast<std::uint32_t>(frame.size());
  if (TraceRecorder* t = tracer(from); t != nullptr) {
    t->record(TraceEvent{now(), SpanKind::kChannelSend, bytes, 0, from,
                         kNoBee, 0, kind, frame_seq, to});
  }
  // The fault plan decides this frame's fate (drop / duplicate / delay).
  FaultPlan::Delivery fate;
  if (faults_.active()) {
    std::lock_guard lock(rng_mutex_);
    fate = faults_.decide(from, to, /*base_latency=*/0, rng_);
    if (fate.copies == 0) return;  // dropped or partitioned
  }
  Hive* target = hives_[to].get();
  // Delivery runs on the target hive's loop thread, preserving the
  // single-threaded-per-hive execution discipline.
  for (std::uint8_t copy = 0; copy < fate.copies; ++copy) {
    Bytes payload = (copy + 1 == fate.copies) ? std::move(frame) : frame;
    schedule_after(to, fate.extra_delay[copy],
                   [this, from, to, target, frame_seq, kind, bytes,
                    f = std::move(payload)]() {
                     if (TraceRecorder* t = tracer(to); t != nullptr) {
                       t->record(TraceEvent{now(), SpanKind::kChannelRecv,
                                            bytes, 0, from, kNoBee, 0, kind,
                                            frame_seq, to});
                     }
                     target->on_wire(f);
                   });
  }
}

QueueStats ThreadCluster::queue_stats(HiveId hive) {
  if (hive >= nodes_.size()) return {};
  Node& node = *nodes_[hive];
  std::lock_guard lock(node.mutex);
  QueueStats qs;
  qs.depth = node.queue.size() + node.timed_size;
  // Window-watermark semantics: the current depth is the next window's
  // baseline.
  qs.hwm = std::max(node.q_hwm, qs.depth);
  node.q_hwm = qs.depth;
  qs.drained = node.q_drained;
  return qs;
}

HealthReport ThreadCluster::health(
    const std::vector<HiveId>& suspected) const {
  return health_report(now(), [&suspected](HiveId h) {
    return std::find(suspected.begin(), suspected.end(), h) !=
           suspected.end();
  });
}

std::string ThreadCluster::health_json(
    const std::vector<HiveId>& suspected) const {
  return health(suspected).to_json();
}

std::vector<TraceEvent> ThreadCluster::snapshot_trace_events() {
  std::vector<TraceEvent> all;
  if (tracers_.empty()) return all;
  if (!running_.load()) {
    // Quiescent: no loop threads are writing, direct reads are safe.
    for (const auto& t : tracers_) {
      std::vector<TraceEvent> events = t->events_with_retained();
      all.insert(all.end(), events.begin(), events.end());
    }
    return all;
  }
  // Running: each recorder is single-writer from its hive's loop thread,
  // so the copy must happen *on* that thread. Bounded wait per hive — a
  // wedged or overloaded loop is skipped (partial assembly beats blocking
  // a scrape forever, and beats a torn read always). The shared_ptr keeps
  // the promise alive if we time out and the task fires later.
  for (HiveId id = 0; id < tracers_.size(); ++id) {
    auto slot = std::make_shared<std::promise<std::vector<TraceEvent>>>();
    std::future<std::vector<TraceEvent>> done = slot->get_future();
    post(id, [t = tracers_[id].get(), slot] {
      slot->set_value(t->events_with_retained());
    });
    if (done.wait_for(std::chrono::seconds(2)) ==
        std::future_status::ready) {
      std::vector<TraceEvent> events = done.get();
      all.insert(all.end(), events.begin(), events.end());
    }
  }
  return all;
}

std::vector<AssembledTrace> ThreadCluster::assembled_traces(
    std::size_t top_n) {
  return assemble_traces(snapshot_trace_events(), top_n);
}

std::string ThreadCluster::traces_json(std::size_t top_n) {
  return beehive::traces_json(assembled_traces(top_n), now());
}

TraceBlame ThreadCluster::blame_scrape(std::uint64_t* n_traces) {
  std::lock_guard lock(blame_mutex_);
  const TimePoint at = now();
  if (at - blame_at_ >= kSecond) {
    std::vector<AssembledTrace> traces = assembled_traces(20);
    blame_totals_ = blame_totals(traces);
    blame_traces_ = traces.size();
    blame_at_ = at;
  }
  if (n_traces != nullptr) *n_traces = blame_traces_;
  return blame_totals_;
}

void ThreadCluster::pin_loop_thread(std::size_t hive_index) {
#if defined(__linux__)
  // Hive i takes the ((pin_cpu + i) mod n)-th of the n startup CPUs, so a
  // restricted process (taskset, cgroup cpuset) keeps every loop inside
  // its set; the machine's CPU numbers need not be 0..n-1 there.
  const auto n = static_cast<std::size_t>(CPU_COUNT(&kStartupCpus));
  int cpu = -1;
  int err = EINVAL;
  if (n > 0) {
    std::size_t skip =
        (static_cast<std::size_t>(config_.hive.pin_cpu) + hive_index) % n;
    for (cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &kStartupCpus) && skip-- == 0) break;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    err = pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
  }
  // Best-effort: an unpinned loop is only a performance concern.
  if (err != 0) {
    std::call_once(pin_warning_, [&] {
      BH_WARN << "hive " << hive_index << ": cannot pin its loop thread to cpu "
              << cpu << " (" << std::strerror(err) << "); loops run unpinned";
    });
  }
#else
  (void)hive_index;
#endif
}

void ThreadCluster::loop(HiveId id) {
  Node& node = *nodes_[id];
  if (config_.hive.pin_cpu >= 0) pin_loop_thread(id);
  // Swapped with node.queue each turn and cleared after running: both
  // vectors keep their capacity, so a steady-state turn allocates nothing.
  std::vector<Task> batch;
  std::vector<std::function<void()>> run;
  const auto has_work = [&] {
    return !node.queue.empty() || !running_.load();
  };
  std::unique_lock lock(node.mutex);
  for (;;) {
    if (!has_work()) {
      // Spin with the lock released: a push that lands within the budget
      // starts the next turn with no wake-up.
      lock.unlock();
      const bool budget_ran_out = spin(node);
      lock.lock();
      if (budget_ran_out) {
        // Park until a producer pushes, the next timer is due, or stop().
        // `sleeping` is set and the queue re-checked in one critical
        // section, so a push after the spin is either seen here or
        // notifies.
        node.sleeping = true;
        if (!has_work()) node.parks.bump();
        if (node.timed.empty()) {
          node.cv.wait(lock, has_work);
        } else {
          node.cv.wait_until(
              lock, epoch_ + std::chrono::microseconds(node.timed.top().at),
              has_work);
        }
        node.sleeping = false;
      }
    }
    if (!running_.load()) return;

    // One turn: take everything pushed so far, in push order, and run it
    // with the lock released. `busy` keeps wait_idle from seeing an empty
    // queue while the batch is still executing.
    batch.swap(node.queue);
    node.pushed = false;
    node.busy = true;
    lock.unlock();

    const TimePoint current = now();
    for (Task& t : batch) {
      if (t.at != 0) node.timed.push(std::move(t));
    }
    // Due timed tasks run first (they were scheduled for an earlier
    // instant), ordered by (due time, sequence) ...
    while (!node.timed.empty() && node.timed.top().at <= current) {
      run.push_back(std::move(const_cast<Task&>(node.timed.top()).fn));
      node.timed.pop();
    }
    // ... then this turn's immediate tasks, in push order.
    for (Task& t : batch) {
      if (t.at == 0) run.push_back(std::move(t.fn));
    }
    batch.clear();
    for (auto& fn : run) fn();
    const std::size_t ran = run.size();
    run.clear();  // releases the closures' captures

    lock.lock();
    node.busy = false;
    node.q_drained += ran;
    node.timed_size = node.timed.size();
    if (node_idle(node)) node.idle_cv.notify_all();
  }
}

bool ThreadCluster::spin(const Node& node) const {
  using Clock = std::chrono::steady_clock;
  Clock::time_point until = Clock::now() + kSpinBudget;
  bool budget = true;
  if (!node.timed.empty()) {
    const Clock::time_point due =
        epoch_ + std::chrono::microseconds(node.timed.top().at);
    if (due < until) {
      until = due;
      budget = false;
    }
  }
  while (Clock::now() < until) {
    if (node.pushed || !running_) return false;
    cpu_relax();
  }
  return budget;
}

bool ThreadCluster::node_idle(const Node& node) {
  return node.queue.empty() && !node.busy && node.timed_size == 0;
}

void ThreadCluster::wait_idle() {
  // Wait for each node to go idle, then repeat the pass until one finds
  // every node idle with the same drained count as the pass before. Each
  // node then ran nothing between its two checks, and those spans all
  // overlap between the end of one pass and the start of the next: an
  // instant when the whole cluster was idle. A single pass is not enough,
  // since a node checked late can still hand work to one checked early.
  std::vector<std::uint64_t> seen(nodes_.size(), 0);
  while (running_.load()) {
    bool settled = true;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      Node& node = *nodes_[i];
      std::unique_lock lock(node.mutex);
      node.idle_cv.wait(
          lock, [&] { return !running_.load() || node_idle(node); });
      if (node.q_drained != seen[i]) {
        seen[i] = node.q_drained;
        settled = false;
      }
    }
    if (settled) return;
  }
}

}  // namespace beehive
