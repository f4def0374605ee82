#include "cluster/cluster.h"

#include <cassert>

namespace beehive {

namespace {

/// Registers the channel totals (beehive_channel_bytes_total,
/// _messages_total, _hotspot_share) and every registry shard's contention
/// counters (beehive_registry_ops_total, _lock_waits_total,
/// _lock_wait_us_total, _invalidations_total, labeled {shard=<n>}) as
/// pull-gauges. The meter's stripe locks and the shard stats make the reads
/// safe at scrape time.
void register_cluster_metrics(MetricsRegistry& reg, const ChannelMeter& meter,
                              const RegistryService& registry) {
  reg.gauge_fn(
      "beehive_channel_bytes_total", {},
      [&meter] { return static_cast<double>(meter.total_bytes()); },
      "Bytes that crossed the inter-hive control channel.",
      /*counter_semantics=*/true);
  reg.gauge_fn(
      "beehive_channel_messages_total", {},
      [&meter] { return static_cast<double>(meter.total_messages()); },
      "Frames that crossed the inter-hive control channel.",
      /*counter_semantics=*/true);
  reg.gauge_fn(
      "beehive_channel_hotspot_share", {},
      [&meter] { return meter.hotspot_share(); },
      "Fraction of inter-hive traffic involving the busiest hive.");
  for (std::uint32_t s = 0; s < registry.shard_count(); ++s) {
    const MetricLabels labels{{"shard", std::to_string(s)}};
    reg.gauge_fn(
        "beehive_registry_ops_total", labels,
        [&registry, s] {
          return static_cast<double>(registry.shard_stats(s).ops);
        },
        "Registry operations that locked this shard.",
        /*counter_semantics=*/true);
    reg.gauge_fn(
        "beehive_registry_lock_waits_total", labels,
        [&registry, s] {
          return static_cast<double>(registry.shard_stats(s).lock_waits);
        },
        "Shard lock acquisitions that contended (try_lock failed).",
        /*counter_semantics=*/true);
    reg.gauge_fn(
        "beehive_registry_lock_wait_us_total", labels,
        [&registry, s] {
          return static_cast<double>(registry.shard_stats(s).lock_wait_ns) /
                 1000.0;
        },
        "Microseconds spent blocked on this shard's lock.",
        /*counter_semantics=*/true);
    reg.gauge_fn(
        "beehive_registry_invalidations_total", labels,
        [&registry, s] {
          return static_cast<double>(registry.shard_stats(s).invalidations);
        },
        "Cache invalidations issued by ownership writes to this shard.",
        /*counter_semantics=*/true);
  }
}

}  // namespace

ClusterBase::ClusterBase(ClusterConfig config)
    : config_(config),
      meter_(config.n_hives),
      registry_(config.n_hives, &meter_) {
  assert(config_.n_hives > 0);
  config_.hive.n_hives = config_.n_hives;
  if (config_.metrics) metrics_ = std::make_unique<MetricsRegistry>();
  if (config_.flight_recorder) {
    recorder_ = std::make_unique<FlightRecorder>(FlightRecorder::kLinesPerHive,
                                                 config_.n_hives);
  }
  if (config_.tracing) {
    tracers_.reserve(config_.n_hives);
    for (std::size_t i = 0; i < config_.n_hives; ++i) {
      tracers_.push_back(
          std::make_unique<TraceRecorder>(config_.trace_capacity));
      if (config_.tail.enabled) tracers_.back()->configure_tail(config_.tail);
    }
  }
}

void ClusterBase::build_hives(const AppSet& apps) {
  hives_.reserve(config_.n_hives);
  for (HiveId id = 0; id < config_.n_hives; ++id) {
    HiveConfig hc = config_.hive;
    hc.tracer = tracer(id);
    hc.faults = &faults_;
    hc.metrics = metrics_.get();
    hc.recorder = recorder_.get();
    hives_.push_back(std::make_unique<Hive>(id, apps, registry_, *this, hc));
  }
  if (metrics_) register_cluster_metrics(*metrics_, meter_, registry_);
}

HealthReport ClusterBase::health_report(
    TimePoint at, const std::function<bool(HiveId)>& suspected) const {
  HealthReport report;
  report.at = at;
  report.hives.reserve(hives_.size());
  for (const auto& hive : hives_) {
    HiveHealth h = hive->health();
    h.suspected = suspected(h.hive);
    report.hives.push_back(h);
  }
  report.registry_shards.reserve(registry_.shard_count());
  for (std::uint32_t s = 0; s < registry_.shard_count(); ++s) {
    const RegistryShardStats stats = registry_.shard_stats(s);
    report.registry_shards.push_back({s, stats.ops, stats.lock_waits,
                                      stats.lock_wait_ns / 1000,
                                      stats.invalidations, stats.resolves});
  }
  return report;
}

std::vector<const TraceRecorder*> ClusterBase::recorders() const {
  std::vector<const TraceRecorder*> out;
  out.reserve(tracers_.size());
  for (const auto& t : tracers_) out.push_back(t.get());
  return out;
}

std::vector<TraceEvent> ClusterBase::trace_events() const {
  return merge_trace_events(recorders());
}

}  // namespace beehive
