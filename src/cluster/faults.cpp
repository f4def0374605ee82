#include "cluster/faults.h"

namespace beehive {

void FaultPlan::set_default_link(const LinkFaults& faults) {
  default_ = faults;
}

void FaultPlan::set_link(HiveId from, HiveId to, const LinkFaults& faults) {
  links_[{from, to}] = faults;
}

void FaultPlan::partition(HiveId a, HiveId b) {
  partitions_.insert(ordered(a, b));
}

void FaultPlan::heal(HiveId a, HiveId b) { partitions_.erase(ordered(a, b)); }

bool FaultPlan::partitioned(HiveId a, HiveId b) const {
  return partitions_.contains(ordered(a, b));
}

const LinkFaults& FaultPlan::link(HiveId from, HiveId to) const {
  auto it = links_.find({from, to});
  return it == links_.end() ? default_ : it->second;
}

FaultPlan::Delivery FaultPlan::decide(HiveId from, HiveId to,
                                      Duration base_latency,
                                      Xoshiro256& rng) {
  Delivery d;
  if (partitioned(from, to)) {
    ++stats_.frames_partitioned;
    d.copies = 0;
    return d;
  }
  const LinkFaults& f = link(from, to);
  // Fixed draw order (drop, duplicate, then per-copy jitter/reorder) keeps
  // the RNG stream — and therefore the whole run — a pure function of
  // (seed, plan, traffic).
  if (f.drop > 0.0 && rng.next_double() < f.drop) {
    ++stats_.frames_dropped;
    d.copies = 0;
    return d;
  }
  if (f.duplicate > 0.0 && rng.next_double() < f.duplicate) {
    ++stats_.frames_duplicated;
    d.copies = 2;
  }
  for (std::uint8_t i = 0; i < d.copies; ++i) {
    Duration extra = 0;
    if (f.jitter > 0.0 && rng.next_double() < f.jitter) {
      extra += static_cast<Duration>(
          rng.next_double() * static_cast<double>(f.jitter_max));
    }
    if (f.reorder > 0.0 && rng.next_double() < f.reorder) {
      extra += base_latency;
    }
    if (extra > 0) ++stats_.frames_delayed;
    d.extra_delay[i] = extra;
  }
  return d;
}

bool FaultPlan::rpc_lost(HiveId requester, HiveId server, Xoshiro256& rng) {
  if (requester == server) return false;
  if (partitioned(requester, server)) {
    ++stats_.rpcs_lost;
    return true;
  }
  const LinkFaults& f = link(requester, server);
  if (f.drop > 0.0 && rng.next_double() < f.drop) {
    ++stats_.rpcs_lost;
    return true;
  }
  return false;
}

}  // namespace beehive
