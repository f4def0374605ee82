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

struct CollectorConfig {
  Duration optimize_period = 5 * kSecond;
};

class CollectorApp : public App {
 public:
  /// `strategy` decides migrations each optimization round (NoopStrategy
  /// collects analytics without ever migrating). `n_hives` sizes the view.
  CollectorApp(std::shared_ptr<PlacementStrategy> strategy,
               std::size_t n_hives, CollectorConfig config = {});

  /// One BeeView per reporting bee, summed over the reports since the
  /// last optimization round; each round scores every row and erases it.
  static constexpr std::string_view kBeesDict = "stats.bees";
  static constexpr std::string_view kHivesDict = "stats.hives";
  /// Cumulative analytics: inputs per (app, message type) and causation
  /// per (app, input type, output type).
  static constexpr std::string_view kInTypesDict = "stats.intypes";
  static constexpr std::string_view kCausationDict = "stats.causation";
  /// Explained optimizer decisions, one PlacementRound cell per
  /// optimization round that considered at least one candidate (keys
  /// "r<round>", plus "next" holding the round counter). Only the last
  /// kDecisionRoundsKept rounds are retained.
  static constexpr std::string_view kDecisionsDict = "stats.decisions";
  static constexpr std::uint64_t kDecisionRoundsKept = 8;
  /// Latest queue-pressure score per hive (one cell per hive, overwritten
  /// each report) — the signal CostPressureStrategy folds into its ranking.
  static constexpr std::string_view kPressureDict = "stats.pressure";

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

  /// Retained decision rounds, oldest first (tests, benches, StatusApp).
  static std::vector<PlacementRound> decisions_from_store(
      const StateStore& store);
};

}  // namespace beehive
