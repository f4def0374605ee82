#include "instrument/collector.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "core/context.h"

namespace beehive {

namespace {

/// Tiny codec wrapper for the per-hive cell count.
struct HiveCells {
  static constexpr std::string_view kTypeName = "stats.hive_cells";
  std::uint64_t cells = 0;

  void encode(ByteWriter& w) const { w.varint(cells); }
  static HiveCells decode(ByteReader& r) { return {r.varint()}; }
};

std::string bee_key(BeeId bee) { return std::to_string(bee); }

/// Codec for one "stats.pressure" cell (latest score per hive; overwrite,
/// don't accumulate — pressure is an instantaneous reading).
struct HivePressure {
  static constexpr std::string_view kTypeName = "stats.hive_pressure";
  double pressure = 0.0;

  void encode(ByteWriter& w) const { w.f64(pressure); }
  static HivePressure decode(ByteReader& r) { return {r.f64()}; }
};

CellSet collector_cells() {
  return CellSet{
      {std::string(CollectorApp::kBeesDict), std::string(kAllKeys)},
      {std::string(CollectorApp::kHivesDict), std::string(kAllKeys)},
      {std::string(CollectorApp::kInTypesDict), std::string(kAllKeys)},
      {std::string(CollectorApp::kCausationDict), std::string(kAllKeys)},
      {std::string(CollectorApp::kDecisionsDict), std::string(kAllKeys)},
      {std::string(CollectorApp::kPressureDict), std::string(kAllKeys)}};
}

void bump_counter(Txn& txn, std::string_view dict, const std::string& key,
                  std::uint64_t delta) {
  HiveCells counter = txn.get_as<HiveCells>(dict, key).value_or(HiveCells{});
  counter.cells += delta;
  txn.put_as(dict, key, counter);
}

HiveId hive_of_key(const std::string& key) {
  return static_cast<HiveId>(std::stoul(key));
}

/// Typed scans of one collector dict: in the round's transaction, or over
/// a collector bee's store.
template <typename T, typename Fn>
void scan(const Txn& txn, std::string_view dict, Fn&& fn) {
  txn.for_each<T>(dict, fn);
}
template <typename T, typename Fn>
void scan(const StateStore& store, std::string_view dict, Fn&& fn) {
  if (const Dict* d = store.find_dict(dict)) d->for_each_as<T>(fn);
}

/// Builds the optimizer's input from the collector's dicts, read through
/// `source` (a Txn or a StateStore).
template <typename Source>
ClusterView assemble_view(const Source& source, std::size_t n_hives) {
  ClusterView view;
  view.n_hives = n_hives;
  scan<HiveCells>(source, CollectorApp::kHivesDict,
                  [&view](const std::string& key, const HiveCells& c) {
                    view.hive_cells[hive_of_key(key)] = c.cells;
                  });
  scan<HivePressure>(source, CollectorApp::kPressureDict,
                     [&view](const std::string& key, const HivePressure& p) {
                       view.hive_pressure[hive_of_key(key)] = p.pressure;
                     });
  scan<BeeView>(source, CollectorApp::kBeesDict,
                [&view](const std::string&, const BeeView& bee) {
                  view.bees.push_back(bee);
                });
  return view;
}

}  // namespace

CollectorApp::CollectorApp(std::shared_ptr<PlacementStrategy> strategy,
                           std::size_t n_hives, CollectorConfig config)
    : App("platform.collector") {
  register_metrics_messages();
  MsgTypeRegistry::instance().ensure<BeeView>();
  MsgTypeRegistry::instance().ensure<HiveCells>();
  MsgTypeRegistry::instance().ensure<PlacementRound>();
  MsgTypeRegistry::instance().ensure<HivePressure>();

  // Aggregation: every hive's periodic report folds into the whole-dict
  // cells, centralizing the collector on one bee by construction.
  on<LocalMetricsReport>(
      [](const LocalMetricsReport&) { return collector_cells(); },
      [](AppContext& ctx, const LocalMetricsReport& report) {
        const HiveSignals& sig = report.signals;
        ctx.state().put_as(kHivesDict, std::to_string(report.hive),
                           HiveCells{static_cast<std::uint64_t>(sig.cells)});
        ctx.state().put_as(kPressureDict, std::to_string(report.hive),
                           HivePressure{sig.pressure});
        for (const BeeMetricsSample& sample : report.bees) {
          const std::string key = bee_key(sample.bee);
          BeeView bee =
              ctx.state().get_as<BeeView>(kBeesDict, key).value_or(BeeView{});
          bee.bee = sample.bee;
          bee.app = sample.app;
          bee.hive = sample.hive;
          bee.pinned = sample.pinned;
          bee.cells = sample.cells;
          bee.msgs_in += sample.msgs_in;
          bee.cost_us += sample.cost_us;
          for (const BeeMetricsSample::SourceCount& src : sample.sources) {
            bee.inbound_by_hive[src.from_hive] += src.count;
          }
          ctx.state().put_as(kBeesDict, key, std::move(bee));

          // Cumulative provenance analytics (never windowed).
          const std::string app_prefix = std::to_string(sample.app) + ":";
          for (const BeeMetricsSample::TypeCount& t : sample.in_types) {
            bump_counter(ctx.state(), kInTypesDict,
                         app_prefix + std::to_string(t.type), t.count);
          }
          for (const BeeMetricsSample::CausationCount& c :
               sample.causations) {
            bump_counter(ctx.state(), kCausationDict,
                         app_prefix + std::to_string(c.in) + ":" +
                             std::to_string(c.out),
                         c.count);
          }
        }
      });

  // Optimization round: view -> strategy -> migration orders. The round
  // scores every row in kBeesDict, then erases the rows it read; they
  // rebuild from the next reports.
  every(
      config.optimize_period,
      [](const MessageEnvelope&) { return collector_cells(); },
      [strategy, n_hives](AppContext& ctx, const MessageEnvelope&) {
        const auto wall_start = std::chrono::steady_clock::now();
        const ClusterView view = assemble_view(ctx.state(), n_hives);
        std::vector<PlacementDecision> decision_log;
        std::vector<MigrationDecision> moves =
            strategy->decide_explained(view, &decision_log);
        // The measured latency covers view assembly + scoring. It flows
        // only into metrics (via note_round), never into state, keeping
        // replays deterministic.
        const auto wall_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        for (const MigrationDecision& d : moves) {
          ctx.order_migration(d.bee, d.to);
        }
        if (!decision_log.empty()) {
          // Persist the explained round (bounded history) and hand the
          // records to the hive for tracing/flight-recording.
          const std::string dict(kDecisionsDict);
          HiveCells next =
              ctx.state().get_as<HiveCells>(dict, "next").value_or(
                  HiveCells{});
          PlacementRound round;
          round.round = next.cells;
          round.at = ctx.now();
          round.strategy = std::string(strategy->name());
          round.scored = view.bees.size();
          round.decisions = decision_log;
          ctx.state().put_as(dict, "r" + std::to_string(round.round), round);
          next.cells += 1;
          ctx.state().put_as(dict, "next", next);
          if (round.round >= kDecisionRoundsKept) {
            ctx.state().erase(
                dict, "r" + std::to_string(round.round - kDecisionRoundsKept));
          }
          for (PlacementDecision& d : decision_log) {
            ctx.note_decision(std::move(d));
          }
        }
        ctx.note_round(
            {view.bees.size(), static_cast<std::uint64_t>(wall_us)});
        for (const BeeView& bee : view.bees) {
          ctx.state().erase(kBeesDict, bee_key(bee.bee));
        }
      });
}

std::vector<CollectorApp::CausationRow> CollectorApp::causation_from_store(
    const StateStore& store) {
  // First index the per-(app, input type) counts.
  std::map<std::pair<AppId, MsgTypeId>, std::uint64_t> inputs;
  scan<HiveCells>(store, kInTypesDict,
                  [&inputs](const std::string& key, const HiveCells& c) {
                    auto colon = key.find(':');
                    AppId app =
                        static_cast<AppId>(std::stoul(key.substr(0, colon)));
                    auto type = static_cast<MsgTypeId>(
                        std::stoul(key.substr(colon + 1)));
                    inputs[{app, type}] = c.cells;
                  });

  std::vector<CausationRow> rows;
  scan<HiveCells>(
      store, kCausationDict,
      [&rows, &inputs](const std::string& key, const HiveCells& c) {
        auto c1 = key.find(':');
        auto c2 = key.find(':', c1 + 1);
        CausationRow row;
        row.app = static_cast<AppId>(std::stoul(key.substr(0, c1)));
        row.in = static_cast<MsgTypeId>(
            std::stoul(key.substr(c1 + 1, c2 - c1 - 1)));
        row.out = static_cast<MsgTypeId>(std::stoul(key.substr(c2 + 1)));
        row.emitted = c.cells;
        auto it = inputs.find({row.app, row.in});
        row.inputs = it == inputs.end() ? 0 : it->second;
        row.ratio = row.inputs == 0 ? 0.0
                                    : static_cast<double>(row.emitted) /
                                          static_cast<double>(row.inputs);
        rows.push_back(row);
      });
  return rows;
}

std::vector<PlacementRound> CollectorApp::decisions_from_store(
    const StateStore& store) {
  std::vector<PlacementRound> rounds;
  if (const Dict* d = store.find_dict(kDecisionsDict)) {
    // A bytes scan: the "next" row is a HiveCells, not a round.
    d->for_each([&rounds](const std::string& key, const Bytes& value) {
      if (key == "next") return;
      rounds.push_back(decode_from_bytes<PlacementRound>(value));
    });
  }
  std::sort(rounds.begin(), rounds.end(),
            [](const PlacementRound& a, const PlacementRound& b) {
              return a.round < b.round;
            });
  return rounds;
}

ClusterView CollectorApp::view_from_store(const StateStore& store,
                                          std::size_t n_hives) {
  return assemble_view(store, n_hives);
}

}  // namespace beehive
