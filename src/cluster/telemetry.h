// Cluster-level telemetry shared by both runtimes (SimCluster and
// ThreadCluster): pull-gauges over the metered control channel and the
// sharded registry, and the registry rows of a HealthReport.
#pragma once

#include <vector>

#include "cluster/channel.h"
#include "cluster/registry.h"
#include "instrument/health.h"
#include "instrument/registry.h"

namespace beehive {

/// Registers the channel totals (beehive_channel_bytes_total,
/// _messages_total, _hotspot_share) and every registry shard's contention
/// counters (beehive_registry_ops_total, _lock_waits_total,
/// _lock_wait_us_total, _invalidations_total, labeled {shard=<n>}) as
/// pull-gauges. The meter's stripe locks and the shard stats make the reads
/// safe at scrape time; `meter` and `registry` must outlive `reg`'s
/// scrapes.
void register_cluster_metrics(MetricsRegistry& reg, const ChannelMeter& meter,
                              const RegistryService& registry);

/// One HealthReport::registry_shards row per registry shard.
std::vector<RegistryShardHealth> registry_shard_health(
    const RegistryService& registry);

}  // namespace beehive
