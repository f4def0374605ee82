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
#include <memory>
#include <queue>
#include <unordered_set>
#include <vector>

#include "cluster/channel.h"
#include "cluster/faults.h"
#include "cluster/registry.h"
#include "cluster/runtime_env.h"
#include "core/hive.h"
#include "instrument/blame.h"
#include "instrument/flight_recorder.h"
#include "instrument/health.h"
#include "instrument/registry.h"

namespace beehive {

struct ClusterConfig {
  std::size_t n_hives = 4;
  /// One-way latency of a control-channel frame between any two hives.
  Duration wire_latency = 200 * kMicrosecond;
  /// Resolution of the bandwidth time series (Fig 4 d–f buckets).
  Duration bw_bucket = kSecond;
  HiveId registry_hive = 0;
  std::uint64_t seed = 42;
  /// Record span events (one TraceRecorder per hive) for the Chrome trace
  /// exporter. Off by default: the dispatch path then never allocates or
  /// branches past one null check per span site.
  bool tracing = false;
  /// Ring capacity (events) of each per-hive recorder.
  std::size_t trace_capacity = 1 << 16;
  /// Tail-based sampling (DESIGN.md §11): retain full span detail for
  /// traces that end slow, shed or failed. Applied to every per-hive
  /// recorder when tracing is on.
  TailSamplerConfig tail;
  /// Own a MetricsRegistry and register every hive's counters, gauges,
  /// latency histograms and rate rings into it. Registration happens once
  /// here in the constructor; the per-message hot path is unchanged (the
  /// counters are the same atomic cells either way), and windowed values
  /// are published once per metrics report.
  bool metrics = true;
  /// Keep a bounded ring of recent log lines and decisions per hive for
  /// post-mortem dumps (instrument/flight_recorder.h).
  bool flight_recorder = false;
  /// Lines retained per hive by the flight recorder.
  std::size_t flight_recorder_lines = 256;
  HiveConfig hive;
};

class SimCluster final : public RuntimeEnv {
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

  // -- Access ---------------------------------------------------------------

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

  /// The cluster's fault plan. Mutate freely between (or mid-) runs:
  /// partitions and link faults take effect from the next frame onward.
  FaultPlan& faults() { return faults_; }
  const FaultPlan& faults() const { return faults_; }

  Hive& hive(HiveId id) { return *hives_.at(id); }
  const Hive& hive(HiveId id) const { return *hives_.at(id); }
  std::size_t n_hives() const { return hives_.size(); }
  ChannelMeter& meter() { return meter_; }
  const ChannelMeter& meter() const { return meter_; }
  RegistryService& registry() { return registry_; }
  const ClusterConfig& config() const { return config_; }

  /// Per-hive span recorder (nullptr when tracing is off).
  TraceRecorder* tracer(HiveId id) {
    return id < tracers_.size() ? tracers_[id].get() : nullptr;
  }

  /// All hives' recorded spans, merged into causal display order. Empty
  /// when tracing is off.
  std::vector<TraceEvent> trace_events() const;

  /// The `top_n` slowest assembled traces with critical-path blame
  /// (instrument/blame.h), built from ring + tail-retained spans.
  std::vector<AssembledTrace> assembled_traces(std::size_t top_n = 20) const;
  /// The /traces.json body for those traces.
  std::string traces_json(std::size_t top_n = 20) const;

  /// The cluster-owned metrics registry (nullptr when config.metrics is
  /// off). Scrape-safe at any point of the run.
  MetricsRegistry* metrics() { return metrics_.get(); }
  const MetricsRegistry* metrics() const { return metrics_.get(); }

  /// The cluster-owned flight recorder (nullptr unless enabled).
  FlightRecorder* flight_recorder() { return recorder_.get(); }

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

  ClusterConfig config_;
  ChannelMeter meter_;
  RegistryService registry_;
  Xoshiro256 rng_;
  FaultPlan faults_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<FlightRecorder> recorder_;
  std::vector<std::unique_ptr<TraceRecorder>> tracers_;
  std::vector<std::unique_ptr<Hive>> hives_;
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
