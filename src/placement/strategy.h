// Placement optimization strategies (paper §3, "On Optimal Placement").
//
// Optimal bee placement is NP-hard (facility location reduces to it), so
// the paper uses a greedy heuristic aiming to process messages close to
// their source: migrate bee B from H1 to H2 when the majority of B's
// messages come from bees on H2 and H2 has capacity. The strategy
// interface makes the heuristic pluggable — the paper notes "it is
// straightforward to implement other optimization strategies" — and the
// ablation bench compares greedy vs. none vs. random.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/rng.h"
#include "util/types.h"

namespace beehive {

struct BeeView {
  BeeId bee = kNoBee;
  AppId app = 0;
  HiveId hive = 0;
  bool pinned = false;
  /// False when this bee's traffic-matrix row (messages, profiler cost)
  /// did not change since the last optimization round. Incremental rounds
  /// (ClusterView::mode) skip clean bees entirely: a clean bee has zero
  /// window traffic, so no strategy could have produced a move for it.
  bool dirty = true;
  std::uint64_t cells = 0;
  std::uint64_t msgs_in = 0;
  std::uint64_t handler_invocations = 0;
  std::uint64_t handler_failures = 0;
  /// Profiler-estimated handler CPU microseconds since the last round
  /// (instrument/profiler.h); 0 when the profiler is off, in which case
  /// cost-aware strategies fall back to message counts.
  std::uint64_t cost_us = 0;
  /// Messages received since the last optimization round, by source hive.
  std::map<HiveId, std::uint64_t> inbound_by_hive;
};

/// Cluster-wide latency digest (microseconds), aggregated by the collector
/// from every hive's report. Strategies can use it as a health signal —
/// e.g. refuse to churn placement while tail latency is already degraded.
struct LatencyView {
  std::uint64_t e2e_count = 0;
  std::uint64_t e2e_p50 = 0;
  std::uint64_t e2e_p99 = 0;
  std::uint64_t queue_p99 = 0;
  std::uint64_t handler_p99 = 0;
};

/// How an optimization round scores the view. A full round re-scores every
/// bee; an incremental round re-scores only the dirty set (bees whose
/// traffic-matrix rows changed since the last round). Because a clean bee
/// has no window traffic, both modes pick the same moves over the same
/// window data — periodic full rounds remain as the drift guard, and the
/// decision log records the mode so the equivalence is checkable.
enum class RoundMode { kFull, kIncremental };

/// Summary of one optimizer round, buffered through AppContext::note_round
/// so the hosting hive can export round latency without the wall-clock
/// measurement ever entering deterministic state.
struct PlacementRoundNote {
  std::string mode;  ///< "full" | "incremental"
  std::uint64_t scored = 0;
  std::uint64_t duration_us = 0;
  std::uint64_t moves = 0;
};

struct ClusterView {
  std::size_t n_hives = 0;
  RoundMode mode = RoundMode::kFull;
  std::map<HiveId, std::uint64_t> hive_cells;
  /// Latest queue-pressure score per hive in [0,1) (LocalMetricsReport);
  /// absent hives read as 0 (unpressured).
  std::map<HiveId, double> hive_pressure;
  std::vector<BeeView> bees;
  LatencyView latency;
};

struct MigrationDecision {
  BeeId bee = kNoBee;
  HiveId to = 0;

  bool operator==(const MigrationDecision&) const = default;
};

/// One explained optimizer decision: why a bee was (or was not) migrated.
/// Wire-encodable so the collector can store rounds in its
/// "stats.decisions" dictionary and ship them in status snapshots.
struct PlacementDecision {
  static constexpr std::string_view kTypeName = "stats.decision";

  BeeId bee = kNoBee;
  HiveId from = 0;
  HiveId to = 0;  ///< Candidate target (== from when no candidate existed).
  bool accepted = false;
  std::uint64_t msgs_total = 0;        ///< Bee's inbound total this window.
  std::uint64_t msgs_from_target = 0;  ///< Of which, from the candidate.
  double score = 0.0;  ///< Strategy-specific, e.g. source fraction.
  std::string reason;  ///< "majority", "no_majority", "capacity", ...
  /// Which measurement ranked this bee: "cost" (profiler CPU estimate) or
  /// "msgs" (message-count fallback). Empty for strategies that predate
  /// the cost profiler.
  std::string signal;
  /// The bee's measured handler CPU microseconds this window (0 when the
  /// profiler is off or the strategy ranked by messages).
  std::uint64_t cost_us = 0;
  /// Queue-pressure scores of the source and candidate target hives at
  /// decision time.
  double pressure_from = 0.0;
  double pressure_to = 0.0;
  /// The traffic-matrix slice that drove the decision: this bee's inbound
  /// counts by source hive.
  std::vector<std::pair<HiveId, std::uint64_t>> inbound;

  void encode(ByteWriter& w) const {
    w.u64(bee);
    w.u32(from);
    w.u32(to);
    w.boolean(accepted);
    w.varint(msgs_total);
    w.varint(msgs_from_target);
    w.f64(score);
    w.str(reason);
    w.str(signal);
    w.varint(cost_us);
    w.f64(pressure_from);
    w.f64(pressure_to);
    w.varint(inbound.size());
    for (const auto& [hive, count] : inbound) {
      w.u32(hive);
      w.varint(count);
    }
  }
  static PlacementDecision decode(ByteReader& r) {
    PlacementDecision d;
    d.bee = r.u64();
    d.from = r.u32();
    d.to = r.u32();
    d.accepted = r.boolean();
    d.msgs_total = r.varint();
    d.msgs_from_target = r.varint();
    d.score = r.f64();
    d.reason = r.str();
    d.signal = r.str();
    d.cost_us = r.varint();
    d.pressure_from = r.f64();
    d.pressure_to = r.f64();
    std::uint64_t n = r.varint();
    for (std::uint64_t i = 0; i < n; ++i) {
      HiveId hive = r.u32();
      d.inbound.emplace_back(hive, r.varint());
    }
    return d;
  }
};

/// One optimization round's worth of explained decisions — the value of
/// one "stats.decisions" cell.
struct PlacementRound {
  static constexpr std::string_view kTypeName = "stats.decision_round";

  std::uint64_t round = 0;
  TimePoint at = 0;
  std::string strategy;
  /// "full" | "incremental": whether this round re-scored every bee or
  /// only the dirty set. Lets tests/benches verify incremental rounds
  /// pick the same moves as the periodic full rounds.
  std::string mode = "full";
  /// How many bees this round actually scored (the view size it saw).
  std::uint64_t scored = 0;
  std::vector<PlacementDecision> decisions;

  void encode(ByteWriter& w) const {
    w.varint(round);
    w.i64(at);
    w.str(strategy);
    w.str(mode);
    w.varint(scored);
    w.varint(decisions.size());
    for (const PlacementDecision& d : decisions) d.encode(w);
  }
  static PlacementRound decode(ByteReader& r) {
    PlacementRound p;
    p.round = r.varint();
    p.at = r.i64();
    p.strategy = r.str();
    p.mode = r.str();
    p.scored = r.varint();
    std::uint64_t n = r.varint();
    for (std::uint64_t i = 0; i < n; ++i) {
      p.decisions.push_back(PlacementDecision::decode(r));
    }
    return p;
  }
};

class PlacementStrategy {
 public:
  virtual ~PlacementStrategy() = default;
  virtual std::string_view name() const = 0;
  virtual std::vector<MigrationDecision> decide(const ClusterView& view) = 0;

  /// Like decide(), but also appends one PlacementDecision per considered
  /// candidate to `log` (when non-null) explaining why it was accepted or
  /// rejected. The base implementation delegates to decide() and records
  /// the accepted moves only; strategies that evaluate candidates override
  /// it to expose their full reasoning.
  virtual std::vector<MigrationDecision> decide_explained(
      const ClusterView& view, std::vector<PlacementDecision>* log);
};

/// The paper's heuristic: follow the message sources.
struct GreedyConfig {
  /// Required share of a bee's inbound messages from the candidate hive.
  double majority_fraction = 0.5;
  /// Ignore bees with fewer inbound messages than this (noise floor).
  std::uint64_t min_messages = 8;
  /// Per-hive cell capacity; moves that would exceed it are skipped.
  std::uint64_t hive_cell_capacity = UINT64_MAX;
};

class GreedyFollowSources final : public PlacementStrategy {
 public:
  explicit GreedyFollowSources(GreedyConfig config = {}) : config_(config) {}

  std::string_view name() const override { return "greedy"; }
  std::vector<MigrationDecision> decide(const ClusterView& view) override;
  std::vector<MigrationDecision> decide_explained(
      const ClusterView& view, std::vector<PlacementDecision>* log) override;

 private:
  GreedyConfig config_;
};

/// Closes the instrumentation loop (DESIGN.md §9): ranks candidate moves
/// by *measured* handler cost x source-hive queue pressure instead of raw
/// message counts. Each bee's weight is its profiler CPU estimate when one
/// exists (signal "cost"), falling back to its message count when the
/// profiler is off (signal "msgs"); weights are scaled by (1 + pressure of
/// the bee's hive) so pressured hives shed work first. Targets follow the
/// paper's majority-source rule, with one extra veto: never move onto a
/// hive meaningfully more pressured than the source.
struct CostPressureConfig {
  /// Required share of a bee's inbound messages from the candidate hive.
  double majority_fraction = 0.5;
  /// Ignore bees with fewer inbound messages than this (noise floor).
  std::uint64_t min_messages = 8;
  /// Per-hive cell capacity; moves that would exceed it are skipped.
  std::uint64_t hive_cell_capacity = UINT64_MAX;
  /// Reject a move whose target's pressure exceeds the source's by more
  /// than this slack ("pressure_inverted").
  double pressure_slack = 0.25;
  /// Safety valve: at most this many moves per round.
  std::size_t max_moves = 64;
};

class CostPressureStrategy final : public PlacementStrategy {
 public:
  explicit CostPressureStrategy(CostPressureConfig config = {})
      : config_(config) {}

  std::string_view name() const override { return "costpressure"; }
  std::vector<MigrationDecision> decide(const ClusterView& view) override;
  std::vector<MigrationDecision> decide_explained(
      const ClusterView& view, std::vector<PlacementDecision>* log) override;

 private:
  CostPressureConfig config_;
};

/// Never migrates (the "no optimization" baseline).
class NoopStrategy final : public PlacementStrategy {
 public:
  std::string_view name() const override { return "noop"; }
  std::vector<MigrationDecision> decide(const ClusterView&) override {
    return {};
  }
};

/// A "smarter optimization strategy" (paper §7 future work): balances
/// message-processing load across hives. Hives whose bees process more
/// than `overload_factor` x the cluster mean shed their busiest movable
/// bees to the least-loaded hives; among equally-loaded targets, a hive
/// that is also a message source for the bee is preferred, so balancing
/// degrades locality as little as possible.
struct LoadBalanceConfig {
  double overload_factor = 1.25;
  std::uint64_t min_messages = 8;
  std::uint64_t hive_cell_capacity = UINT64_MAX;
  /// Safety valve: at most this many moves per round.
  std::size_t max_moves = 64;
};

class LoadBalanceStrategy final : public PlacementStrategy {
 public:
  explicit LoadBalanceStrategy(LoadBalanceConfig config = {})
      : config_(config) {}

  std::string_view name() const override { return "loadbalance"; }
  std::vector<MigrationDecision> decide(const ClusterView& view) override;

 private:
  LoadBalanceConfig config_;
};

/// Moves a random eligible bee to a random hive each round — the sanity
/// baseline showing that migration alone (without following sources) does
/// not localize traffic.
class RandomStrategy final : public PlacementStrategy {
 public:
  explicit RandomStrategy(std::uint64_t seed, double move_fraction = 0.1)
      : rng_(seed), move_fraction_(move_fraction) {}

  std::string_view name() const override { return "random"; }
  std::vector<MigrationDecision> decide(const ClusterView& view) override;

 private:
  Xoshiro256 rng_;
  double move_fraction_;
};

}  // namespace beehive
