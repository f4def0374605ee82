// The metrics collector / placement optimizer — itself a Beehive control
// application, exactly as the paper does it: "We measure runtime metrics on
// each hive locally, and periodically aggregate them on a single hive ...
// We implemented this mechanism using the proposed abstraction as a control
// application."
//
// Every hive's platform timer emits a LocalMetricsReport; the collector
// maps all reports (and its own optimization timer) to whole-dictionary
// cells, so the platform centralizes it on one bee. Each optimization round
// it hands the aggregated ClusterView to a pluggable PlacementStrategy and
// turns the decisions into migration orders.
#pragma once

#include <memory>
#include <string>

#include "core/app.h"
#include "instrument/metrics.h"
#include "placement/strategy.h"
#include "state/store.h"

namespace beehive {

/// Aggregated per-bee record: the value of one "stats.bees" cell.
struct BeeAgg {
  static constexpr std::string_view kTypeName = "stats.bee_agg";

  BeeId bee = kNoBee;
  AppId app = 0;
  HiveId hive = 0;
  bool pinned = false;
  std::uint64_t cells = 0;
  std::uint64_t msgs_in_window = 0;
  std::uint64_t handler_invocations = 0;
  std::uint64_t handler_failures = 0;
  /// Profiler-estimated handler CPU microseconds accumulated since the
  /// last optimization round (0 when the profiler is off).
  std::uint64_t cost_us_window = 0;
  std::vector<std::pair<HiveId, std::uint64_t>> inbound_by_hive;

  void add_inbound(HiveId from, std::uint64_t count) {
    for (auto& [hive, c] : inbound_by_hive) {
      if (hive == from) {
        c += count;
        return;
      }
    }
    inbound_by_hive.emplace_back(from, count);
  }

  void encode(ByteWriter& w) const {
    w.u64(bee);
    w.u32(app);
    w.u32(hive);
    w.boolean(pinned);
    w.varint(cells);
    w.varint(msgs_in_window);
    w.varint(handler_invocations);
    w.varint(handler_failures);
    w.varint(cost_us_window);
    w.varint(inbound_by_hive.size());
    for (const auto& [hive, count] : inbound_by_hive) {
      w.u32(hive);
      w.varint(count);
    }
  }
  static BeeAgg decode(ByteReader& r) {
    BeeAgg a;
    a.bee = r.u64();
    a.app = r.u32();
    a.hive = r.u32();
    a.pinned = r.boolean();
    a.cells = r.varint();
    a.msgs_in_window = r.varint();
    a.handler_invocations = r.varint();
    a.handler_failures = r.varint();
    a.cost_us_window = r.varint();
    std::uint64_t n = r.varint();
    for (std::uint64_t i = 0; i < n; ++i) {
      HiveId hive = r.u32();
      a.inbound_by_hive.emplace_back(hive, r.varint());
    }
    return a;
  }
};

struct CollectorConfig {
  Duration optimize_period = 5 * kSecond;
};

class CollectorApp : public App {
 public:
  /// `strategy` decides migrations each optimization round (NoopStrategy
  /// collects analytics without ever migrating). `n_hives` sizes the view.
  CollectorApp(std::shared_ptr<PlacementStrategy> strategy,
               std::size_t n_hives, CollectorConfig config = {});

  /// Every Nth optimization round is full (re-scores every bee); the
  /// rounds in between are incremental — they re-score only the dirty set
  /// (bees whose traffic-matrix or cost rows changed since the last
  /// round), which at large bee counts is the difference between O(bees)
  /// and O(active bees) per round. The periodic full round is the drift
  /// guard: it also ages out rows of bees that merged away, which
  /// incremental rounds never visit.
  static constexpr std::uint64_t kFullRoundEvery = 8;

  static constexpr std::string_view kBeesDict = "stats.bees";
  static constexpr std::string_view kHivesDict = "stats.hives";
  /// Cumulative analytics: inputs per (app, message type) and causation
  /// per (app, input type, output type).
  static constexpr std::string_view kInTypesDict = "stats.intypes";
  static constexpr std::string_view kCausationDict = "stats.causation";
  /// Cumulative latency histograms: "e2e" plus per-app "queue:<app>" and
  /// "handler:<app>" distributions, merged from every report.
  static constexpr std::string_view kLatencyDict = "stats.latency";
  /// Per-hive reliability health, one cell per hive: latest cumulative
  /// transport totals plus migration aborts and the partition gauge.
  static constexpr std::string_view kTransportDict = "stats.transport";
  /// Explained optimizer decisions, one PlacementRound cell per
  /// optimization round that considered at least one candidate (keys
  /// "r<round>", plus "next" holding the round counter). Only the last
  /// kDecisionRoundsKept rounds are retained.
  static constexpr std::string_view kDecisionsDict = "stats.decisions";
  static constexpr std::uint64_t kDecisionRoundsKept = 8;
  /// Latest queue-pressure score per hive (one cell per hive, overwritten
  /// each report) — the signal CostPressureStrategy folds into its ranking.
  static constexpr std::string_view kPressureDict = "stats.pressure";
  /// Dirty-set marks: one cell per bee whose "stats.bees" row changed
  /// since the last optimization round (keyed like kBeesDict). Incremental
  /// rounds iterate THIS dict — O(active bees) — and point-look-up only
  /// the marked aggregate rows, never sweeping the full bee table.
  static constexpr std::string_view kDirtyDict = "stats.dirty";

  /// Rebuilds the optimizer's input from a collector bee's state store
  /// (used by tests and by benches for analytics output).
  static ClusterView view_from_store(const StateStore& store,
                                     std::size_t n_hives);

  /// One row of the causation analytics the paper describes ("packet out
  /// messages are emitted by the learning switch application upon
  /// receiving 80% of packet in's").
  struct CausationRow {
    AppId app = 0;
    MsgTypeId in = 0;
    MsgTypeId out = 0;
    std::uint64_t emitted = 0;
    std::uint64_t inputs = 0;  ///< messages of type `in` received by `app`
    double ratio = 0.0;        ///< emitted / inputs
  };
  static std::vector<CausationRow> causation_from_store(
      const StateStore& store);

  /// One hive's reliability record as stored in "stats.transport".
  struct TransportRow {
    HiveId hive = 0;
    TransportCounters transport;
    std::uint64_t migration_aborts = 0;
    std::uint32_t partitions_active = 0;
  };
  static std::vector<TransportRow> transport_from_store(
      const StateStore& store);

  /// Retained decision rounds, oldest first (tests, benches, StatusApp).
  static std::vector<PlacementRound> decisions_from_store(
      const StateStore& store);
};

}  // namespace beehive
