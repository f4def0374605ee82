// Deterministic network fault injection for the cluster runtimes.
//
// A FaultPlan describes what the control channel may do to inter-hive
// frames beyond delivering them once: probabilistic drop, duplication,
// extra-delay jitter, forced reordering, and explicit bidirectional
// partitions. The cluster runtime consults the plan once per send and the
// plan draws all randomness from the cluster's seeded Xoshiro256, so two
// runs with the same seed and the same plan produce bit-identical traffic.
//
// The plan models the *network*; surviving it is the job of the reliable
// transport layer (core/transport.h) and the retry protocols built on it.
// A plan with no faults configured is free: `active()` is a single bool
// check and the RNG is never consulted, keeping fault-free runs identical
// to builds that predate this layer.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "util/rng.h"
#include "util/types.h"

namespace beehive {

/// Per-direction fault probabilities of one link (from -> to).
struct LinkFaults {
  /// Probability a frame is silently dropped.
  double drop = 0.0;
  /// Probability a frame is delivered twice (the network duplicated it).
  double duplicate = 0.0;
  /// Probability a frame (or a duplicate copy) picks up extra delay,
  /// uniform in [0, jitter_max).
  double jitter = 0.0;
  Duration jitter_max = 0;
  /// Probability a frame is held back one full base latency — guaranteed
  /// to land behind any frame sent up to `base_latency` later, i.e. a
  /// forced reorder against subsequent traffic.
  double reorder = 0.0;

  bool any() const {
    return drop > 0.0 || duplicate > 0.0 || jitter > 0.0 || reorder > 0.0;
  }
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Faults applied to every link without a per-link override.
  void set_default_link(const LinkFaults& faults);
  /// Directional override for frames from -> to.
  void set_link(HiveId from, HiveId to, const LinkFaults& faults);

  /// Cuts the link in both directions: every frame (and registry RPC)
  /// between a and b is lost until heal(a, b).
  void partition(HiveId a, HiveId b);
  void heal(HiveId a, HiveId b);
  bool partitioned(HiveId a, HiveId b) const;
  std::size_t partitions_active() const { return partitions_.size(); }

  /// True when any fault could fire; runtimes skip the per-frame RNG
  /// draws (and stay byte-identical to fault-free builds) when false.
  bool active() const {
    return !partitions_.empty() || default_.any() || !links_.empty();
  }

  /// What the network does to one frame. `copies == 0` means dropped.
  struct Delivery {
    std::uint8_t copies = 1;
    Duration extra_delay[2] = {0, 0};  ///< per-copy delay on top of base.
  };

  /// Draws the fate of one frame on link from -> to. `base_latency` scales
  /// the forced-reorder delay. All randomness comes from `rng`, in a fixed
  /// draw order, so identical plans and seeds yield identical fates.
  Delivery decide(HiveId from, HiveId to, Duration base_latency,
                  Xoshiro256& rng);

  /// Whether one RPC attempt from `requester` toward `server` is lost
  /// (partitioned, or dropped at the link's drop probability). Local calls
  /// (requester == server) never fail.
  bool rpc_lost(HiveId requester, HiveId server, Xoshiro256& rng);

  // -- Injection statistics (what the network actually did) -----------------

  struct Stats {
    std::uint64_t frames_dropped = 0;
    std::uint64_t frames_duplicated = 0;
    std::uint64_t frames_delayed = 0;    ///< jitter or reorder fired
    std::uint64_t frames_partitioned = 0;
    std::uint64_t rpcs_lost = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  const LinkFaults& link(HiveId from, HiveId to) const;
  static std::pair<HiveId, HiveId> ordered(HiveId a, HiveId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  LinkFaults default_;
  std::map<std::pair<HiveId, HiveId>, LinkFaults> links_;
  std::set<std::pair<HiveId, HiveId>> partitions_;
  Stats stats_;
};

}  // namespace beehive
