// Deterministic discrete-event cluster simulator.
//
// All hives of the simulated control plane execute in one thread under a
// single virtual clock: timers, frame deliveries and end-of-turn
// flushes are events in one priority queue ordered by (time, sequence).
// Two runs with the same configuration and seed produce bit-identical
// traffic matrices and bandwidth series — the property every bench in
// bench/ relies on. The paper's own evaluation "simulated a cluster of 40
// controllers and 400 switches"; this is that harness.
#pragma once

#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.h"
#include "instrument/blame.h"

namespace beehive {

/// One-way latency of a control-channel frame between any two simulated
/// hives.
inline constexpr Duration kWireLatency = 200 * kMicrosecond;

class SimCluster final : public ClusterBase {
 public:
  SimCluster(ClusterConfig config, const AppSet& apps);
  ~SimCluster() override;

  /// Arms every hive's timers. Call once before running.
  void start();

  // -- RuntimeEnv -----------------------------------------------------------

  TimePoint now() const override { return now_; }
  void schedule_after(HiveId hive, Duration delay,
                      std::function<void()> fn) override;
  void send_frame(HiveId from, HiveId to, Bytes frame) override;
  Xoshiro256& rng() override { return rng_; }
  QueueStats queue_stats(HiveId hive) override {
    if (hive >= queues_.size()) return {};
    QueueStats out = queues_[hive];
    // Window-watermark semantics: each read starts a fresh hwm window.
    queues_[hive].hwm = queues_[hive].depth;
    return out;
  }

  // -- Driving --------------------------------------------------------------

  /// Executes one event; returns false when the queue is empty.
  bool step();

  /// Runs every event with timestamp <= t, then advances the clock to t.
  void run_until(TimePoint t);
  void run_for(Duration d) { run_until(now_ + d); }

  /// Drains the queue completely (only safe once timers have expired).
  void run_to_idle();

  std::size_t pending_events() const { return events_.size(); }

  // -- Failure injection ----------------------------------------------------

  /// Crashes a hive: all frames to/from it are dropped and its timers stop
  /// firing from this instant. Its in-memory state is considered lost.
  void fail_hive(HiveId hive);

  /// Fails over every registry-live bee of a failed hive onto its replica
  /// hive (ring successor, skipping other failed hives), adopting the
  /// replicated state there. Returns the number of bees recovered with
  /// state (bees without replicas restart empty). Requires
  /// `config.hive.replication` for lossless recovery.
  std::size_t recover_hive(HiveId hive);

  bool hive_alive(HiveId hive) const { return !failed_.contains(hive); }

  /// The `top_n` slowest assembled traces with critical-path blame
  /// (instrument/blame.h), built from ring + tail-retained spans.
  std::vector<AssembledTrace> assembled_traces(std::size_t top_n = 20) const;
  /// The /traces.json body for those traces.
  std::string traces_json(std::size_t top_n = 20) const;

  /// Every hive's health snapshot, as of each hive's last metrics report.
  /// Failed hives are marked suspected (the sim's crash model *is* the
  /// failure detector's ground truth).
  HealthReport health() const;
  std::string health_json() const { return health().to_json(); }

 private:
  struct Event {
    TimePoint at;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  Xoshiro256 rng_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  /// Per-hive slice of the single event queue (pressure accounting). The
  /// sim is single-threaded, so plain counters suffice.
  std::vector<QueueStats> queues_;
  std::unordered_set<HiveId> failed_;
  std::unordered_set<HiveId> recovered_;
  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace beehive
