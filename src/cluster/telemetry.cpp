#include "cluster/telemetry.h"

namespace beehive {

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

std::vector<RegistryShardHealth> registry_shard_health(
    const RegistryService& registry) {
  std::vector<RegistryShardHealth> rows;
  rows.reserve(registry.shard_count());
  for (std::uint32_t s = 0; s < registry.shard_count(); ++s) {
    const RegistryShardStats stats = registry.shard_stats(s);
    rows.push_back({s, stats.ops, stats.lock_waits, stats.lock_wait_ns / 1000,
                    stats.invalidations, stats.resolves});
  }
  return rows;
}

}  // namespace beehive
