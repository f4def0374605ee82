// The cluster configuration, and what both cluster runtimes build from it.
//
// SimCluster (cluster/sim.h) and ThreadCluster (cluster/thread_cluster.h)
// differ in how they run hives: one virtual clock and one event queue for
// every hive, against one loop thread per hive. Around the hives they build
// the same parts from one ClusterConfig: the channel meter, the registry,
// the fault plan, the metrics registry, the flight recorder, one span
// recorder per hive and the hives themselves, each wired to those parts.
// ClusterBase builds them once for both.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cluster/channel.h"
#include "cluster/faults.h"
#include "cluster/registry.h"
#include "cluster/runtime_env.h"
#include "core/hive.h"
#include "instrument/flight_recorder.h"
#include "instrument/health.h"
#include "instrument/registry.h"
#include "instrument/trace.h"

namespace beehive {

struct ClusterConfig {
  std::size_t n_hives = 4;
  std::uint64_t seed = 42;
  /// Record span events (one TraceRecorder per hive, written only from its
  /// hive's loop) for the Chrome trace exporter. Off by default: the
  /// dispatch path then never allocates or branches past one null check
  /// per span site.
  bool tracing = false;
  /// Ring capacity (events) of each per-hive recorder.
  std::size_t trace_capacity = 1 << 16;
  /// Tail-based sampling (DESIGN.md §11): retain full span detail for
  /// traces that end slow, shed or failed. Applied to every per-hive
  /// recorder when tracing is on.
  TailSamplerConfig tail;
  /// Own a MetricsRegistry and expose every hive's counter and latency
  /// cells, its signal pull-gauges and the cluster's channel and registry
  /// totals in it. Registration happens once, at construction; the
  /// per-message hot path is unchanged (the cells are written either way),
  /// and every scrape reads them live. The registry, and therefore
  /// /metrics via net/http_export.h, is safe to scrape from any thread.
  bool metrics = true;
  /// Keep a bounded ring of recent log lines and decisions per hive
  /// (FlightRecorder::kLinesPerHive each) for post-mortem dumps
  /// (instrument/flight_recorder.h).
  bool flight_recorder = false;
  HiveConfig hive;
};

/// Ancestor of SimCluster and ThreadCluster: owns the parts both build the
/// same way, and the accessors to them.
class ClusterBase : public RuntimeEnv {
 public:
  // Every hive holds a reference to its cluster.
  ClusterBase(const ClusterBase&) = delete;
  ClusterBase& operator=(const ClusterBase&) = delete;

  Hive& hive(HiveId id) { return *hives_.at(id); }
  const Hive& hive(HiveId id) const { return *hives_.at(id); }
  std::size_t n_hives() const { return hives_.size(); }
  const ClusterConfig& config() const { return config_; }
  ChannelMeter& meter() { return meter_; }
  const ChannelMeter& meter() const { return meter_; }
  RegistryService& registry() { return registry_; }

  /// The cluster's fault plan. Partitions and link faults take effect from
  /// the next frame onward. A SimCluster's plan may change freely between
  /// or during runs; a ThreadCluster's is configured before start(), and
  /// while its hives run only partition()/heal() style toggles made from
  /// one controlling thread are safe.
  FaultPlan& faults() { return faults_; }
  const FaultPlan& faults() const { return faults_; }

  /// Per-hive span recorder (nullptr when tracing is off).
  TraceRecorder* tracer(HiveId id) {
    return id < tracers_.size() ? tracers_[id].get() : nullptr;
  }

  /// All hives' recorded spans, merged into causal display order. Empty
  /// when tracing is off. The recorders are not locked: on a ThreadCluster
  /// call this only when the cluster is stopped or idle.
  std::vector<TraceEvent> trace_events() const;

  /// The cluster-owned metrics registry (nullptr when config.metrics is
  /// off). Scrape-safe from any thread while the cluster runs.
  MetricsRegistry* metrics() { return metrics_.get(); }
  const MetricsRegistry* metrics() const { return metrics_.get(); }

  /// The cluster-owned flight recorder (nullptr unless enabled).
  FlightRecorder* flight_recorder() { return recorder_.get(); }

 protected:
  explicit ClusterBase(ClusterConfig config);

  /// Builds one hive per configured id, each on the shared HiveConfig
  /// wired to its span recorder, the fault plan, the metrics registry and
  /// the flight recorder, then registers the channel and registry metrics.
  /// A runtime's constructor calls it once, before anything runs.
  void build_hives(const AppSet& apps);

  /// Every hive's health snapshot as of its last metrics report, plus the
  /// registry's stats row; `suspected(hive)` marks the hives to flag.
  HealthReport health_report(
      TimePoint at, const std::function<bool(HiveId)>& suspected) const;

  std::vector<const TraceRecorder*> recorders() const;

  ClusterConfig config_;
  ChannelMeter meter_;
  RegistryService registry_;
  FaultPlan faults_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<FlightRecorder> recorder_;
  std::vector<std::unique_ptr<TraceRecorder>> tracers_;
  std::vector<std::unique_ptr<Hive>> hives_;
};

}  // namespace beehive
