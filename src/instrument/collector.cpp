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

/// Codec for one "stats.transport" cell (latest snapshot per hive; the
/// counters are lifetime totals so overwrite, don't accumulate).
struct TransportAgg {
  static constexpr std::string_view kTypeName = "stats.transport_agg";
  TransportCounters transport;
  std::uint64_t migration_aborts = 0;
  std::uint32_t partitions_active = 0;

  void encode(ByteWriter& w) const {
    transport.encode(w);
    w.varint(migration_aborts);
    w.u32(partitions_active);
  }
  static TransportAgg decode(ByteReader& r) {
    TransportAgg a;
    a.transport = TransportCounters::decode(r);
    a.migration_aborts = r.varint();
    a.partitions_active = r.u32();
    return a;
  }
};

CellSet collector_cells() {
  return CellSet{
      {std::string(CollectorApp::kBeesDict), std::string(kAllKeys)},
      {std::string(CollectorApp::kHivesDict), std::string(kAllKeys)},
      {std::string(CollectorApp::kInTypesDict), std::string(kAllKeys)},
      {std::string(CollectorApp::kCausationDict), std::string(kAllKeys)},
      {std::string(CollectorApp::kLatencyDict), std::string(kAllKeys)},
      {std::string(CollectorApp::kTransportDict), std::string(kAllKeys)},
      {std::string(CollectorApp::kDecisionsDict), std::string(kAllKeys)},
      {std::string(CollectorApp::kPressureDict), std::string(kAllKeys)},
      {std::string(CollectorApp::kDirtyDict), std::string(kAllKeys)}};
}

void bump_counter(Txn& txn, std::string_view dict, const std::string& key,
                  std::uint64_t delta) {
  HiveCells counter = txn.get_as<HiveCells>(dict, key).value_or(HiveCells{});
  counter.cells += delta;
  txn.put_as(dict, key, counter);
}

void merge_hist(Txn& txn, const std::string& key,
                const LatencyHistogram& delta) {
  if (delta.count() == 0) return;
  LatencyHistogram h =
      txn.get_as<LatencyHistogram>(CollectorApp::kLatencyDict, key)
          .value_or(LatencyHistogram{});
  h.merge(delta);
  txn.put_as(CollectorApp::kLatencyDict, key, h);
}

/// Folds "stats.latency" cells into the digest strategies consume; works
/// over both a live Txn and a raw StateStore.
struct LatencyFold {
  LatencyView out;
  LatencyHistogram queue;
  LatencyHistogram handler;

  void add(const std::string& key, const Bytes& value) {
    LatencyHistogram h = decode_from_bytes<LatencyHistogram>(value);
    if (key == "e2e") {
      out.e2e_count = h.count();
      out.e2e_p50 = h.p50();
      out.e2e_p99 = h.p99();
    } else if (key.starts_with("queue:")) {
      queue.merge(h);
    } else if (key.starts_with("handler:")) {
      handler.merge(h);
    }
  }
  LatencyView finish() {
    out.queue_p99 = queue.p99();
    out.handler_p99 = handler.p99();
    return out;
  }
};

}  // namespace

CollectorApp::CollectorApp(std::shared_ptr<PlacementStrategy> strategy,
                           std::size_t n_hives, CollectorConfig config)
    : App("platform.collector") {
  register_metrics_messages();
  MsgTypeRegistry::instance().ensure<BeeAgg>();
  MsgTypeRegistry::instance().ensure<HiveCells>();
  MsgTypeRegistry::instance().ensure<TransportAgg>();
  MsgTypeRegistry::instance().ensure<PlacementRound>();
  MsgTypeRegistry::instance().ensure<HivePressure>();
  const std::string bees(kBeesDict);
  const std::string hives(kHivesDict);

  // Aggregation: every hive's periodic report folds into the whole-dict
  // cells, centralizing the collector on one bee by construction.
  on<LocalMetricsReport>(
      [](const LocalMetricsReport&) { return collector_cells(); },
      [bees, hives](AppContext& ctx, const LocalMetricsReport& report) {
        const HiveSignals& sig = report.signals;
        ctx.state().put_as(hives, std::to_string(report.hive),
                           HiveCells{static_cast<std::uint64_t>(sig.cells)});
        ctx.state().put_as(
            CollectorApp::kTransportDict, std::to_string(report.hive),
            TransportAgg{report.transport,
                         static_cast<std::uint64_t>(sig.migration_aborts),
                         static_cast<std::uint32_t>(sig.partitions_active)});
        ctx.state().put_as(CollectorApp::kPressureDict,
                           std::to_string(report.hive),
                           HivePressure{sig.pressure});
        merge_hist(ctx.state(), "e2e", report.e2e_latency);
        for (const BeeMetricsSample& sample : report.bees) {
          BeeAgg agg = ctx.state()
                           .get_as<BeeAgg>(bees, bee_key(sample.bee))
                           .value_or(BeeAgg{});
          agg.bee = sample.bee;
          agg.app = sample.app;
          agg.hive = sample.hive;
          agg.pinned = sample.pinned;
          agg.cells = sample.cells;
          agg.msgs_in_window += sample.msgs_in;
          agg.handler_invocations += sample.handler_invocations;
          agg.handler_failures += sample.handler_failures;
          agg.cost_us_window += sample.cost_us;
          for (const BeeMetricsSample::SourceCount& src : sample.sources) {
            agg.add_inbound(src.from_hive, src.count);
          }
          ctx.state().put_as(bees, bee_key(sample.bee), agg);
          if (sample.msgs_in > 0 || sample.cost_us > 0) {
            // The traffic-matrix (or cost) row changed: mark the bee dirty
            // so the next incremental round re-scores it.
            ctx.state().put_as(CollectorApp::kDirtyDict,
                               bee_key(sample.bee), HiveCells{1});
          }

          // Cumulative provenance analytics (never windowed).
          const std::string app_prefix = std::to_string(sample.app) + ":";
          merge_hist(ctx.state(), "queue:" + std::to_string(sample.app),
                     sample.queue_latency);
          merge_hist(ctx.state(), "handler:" + std::to_string(sample.app),
                     sample.handler_latency);
          for (const BeeMetricsSample::TypeCount& t : sample.in_types) {
            bump_counter(ctx.state(), CollectorApp::kInTypesDict,
                         app_prefix + std::to_string(t.type), t.count);
          }
          for (const BeeMetricsSample::CausationCount& c :
               sample.causations) {
            bump_counter(ctx.state(), CollectorApp::kCausationDict,
                         app_prefix + std::to_string(c.in) + ":" +
                             std::to_string(c.out),
                         c.count);
          }
        }
      });

  // Optimization round: view -> strategy -> migration orders, then clear
  // the consumed window entries (they rebuild from the next reports).
  // Every Nth round is FULL: it sweeps the whole bee table (which also
  // ages out bees that merged away) and acts as the drift guard. The
  // rounds in between are INCREMENTAL: they iterate only the dirty marks
  // and point-look-up those aggregate rows, so round cost scales with the
  // active set, not the bee population. Both modes see identical window
  // data for every bee with traffic, so they pick the same moves — the
  // logged PlacementRound carries mode+scored to make that checkable.
  every(
      config.optimize_period,
      [](const MessageEnvelope&) { return collector_cells(); },
      [strategy, n_hives, bees](AppContext& ctx, const MessageEnvelope&) {
        const std::string dict(CollectorApp::kDecisionsDict);
        const std::string dirty_dict(CollectorApp::kDirtyDict);
        HiveCells tick =
            ctx.state().get_as<HiveCells>(dict, "tick").value_or(HiveCells{});
        const bool full = tick.cells % kFullRoundEvery == 0;
        ctx.state().put_as(dict, "tick", HiveCells{tick.cells + 1});
        const auto wall_start = std::chrono::steady_clock::now();

        ClusterView view;
        view.n_hives = n_hives;
        view.mode = full ? RoundMode::kFull : RoundMode::kIncremental;
        ctx.state().for_each(
            std::string(kHivesDict),
            [&view](const std::string& key, const Bytes& value) {
              view.hive_cells[static_cast<HiveId>(std::stoul(key))] =
                  decode_from_bytes<HiveCells>(value).cells;
            });
        ctx.state().for_each(
            std::string(CollectorApp::kPressureDict),
            [&view](const std::string& key, const Bytes& value) {
              view.hive_pressure[static_cast<HiveId>(std::stoul(key))] =
                  decode_from_bytes<HivePressure>(value).pressure;
            });
        auto view_bee = [&view](BeeAgg agg, bool dirty) {
          BeeView bee;
          bee.bee = agg.bee;
          bee.app = agg.app;
          bee.hive = agg.hive;
          bee.pinned = agg.pinned;
          bee.dirty = dirty;
          bee.cells = agg.cells;
          bee.msgs_in = agg.msgs_in_window;
          bee.handler_invocations = agg.handler_invocations;
          bee.handler_failures = agg.handler_failures;
          bee.cost_us = agg.cost_us_window;
          for (const auto& [hive, count] : agg.inbound_by_hive) {
            bee.inbound_by_hive[hive] += count;
          }
          view.bees.push_back(std::move(bee));
        };
        std::vector<std::string> keys;        // consumed agg rows
        std::vector<std::string> dirty_keys;  // consumed dirty marks
        if (full) {
          ctx.state().for_each(
              bees,
              [&](const std::string& key, const Bytes& value) {
                BeeAgg agg = decode_from_bytes<BeeAgg>(value);
                const bool dirty =
                    agg.msgs_in_window > 0 || agg.cost_us_window > 0;
                view_bee(std::move(agg), dirty);
                keys.push_back(key);
              });
          ctx.state().for_each(dirty_dict,
                               [&dirty_keys](const std::string& key,
                                             const Bytes&) {
                                 dirty_keys.push_back(key);
                               });
        } else {
          ctx.state().for_each(
              dirty_dict, [&](const std::string& key, const Bytes&) {
                dirty_keys.push_back(key);
                auto agg = ctx.state().get_as<BeeAgg>(bees, key);
                if (!agg.has_value()) return;  // merged away mid-window
                view_bee(std::move(*agg), /*dirty=*/true);
                keys.push_back(key);
              });
        }
        LatencyFold fold;
        ctx.state().for_each(
            std::string(CollectorApp::kLatencyDict),
            [&fold](const std::string& key, const Bytes& value) {
              fold.add(key, value);
            });
        view.latency = fold.finish();

        std::vector<PlacementDecision> decision_log;
        std::vector<MigrationDecision> moves =
            strategy->decide_explained(view, &decision_log);
        // The measured latency covers view assembly + scoring — the part
        // incremental rounds shrink. It flows only into metrics (via
        // note_round), never into state, keeping replays deterministic.
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
          HiveCells next =
              ctx.state().get_as<HiveCells>(dict, "next").value_or(
                  HiveCells{});
          PlacementRound round;
          round.round = next.cells;
          round.at = ctx.now();
          round.strategy = std::string(strategy->name());
          round.mode = full ? "full" : "incremental";
          round.scored = view.bees.size();
          round.decisions = decision_log;
          ctx.state().put_as(dict, "r" + std::to_string(round.round), round);
          next.cells += 1;
          ctx.state().put_as(dict, "next", next);
          if (round.round >= CollectorApp::kDecisionRoundsKept) {
            ctx.state().erase(
                dict, "r" + std::to_string(
                          round.round - CollectorApp::kDecisionRoundsKept));
          }
          for (PlacementDecision& d : decision_log) {
            ctx.note_decision(std::move(d));
          }
        }
        ctx.note_round({full ? "full" : "incremental", view.bees.size(),
                        static_cast<std::uint64_t>(wall_us), moves.size()});
        for (const std::string& key : keys) {
          ctx.state().erase(bees, key);
        }
        for (const std::string& key : dirty_keys) {
          ctx.state().erase(dirty_dict, key);
        }
      });
}

std::vector<CollectorApp::CausationRow> CollectorApp::causation_from_store(
    const StateStore& store) {
  // First index the per-(app, input type) counts.
  std::map<std::pair<AppId, MsgTypeId>, std::uint64_t> inputs;
  if (const Dict* in_types = store.find_dict(kInTypesDict)) {
    in_types->for_each([&inputs](const std::string& key, const Bytes& v) {
      auto colon = key.find(':');
      AppId app = static_cast<AppId>(std::stoul(key.substr(0, colon)));
      auto type = static_cast<MsgTypeId>(std::stoul(key.substr(colon + 1)));
      inputs[{app, type}] = decode_from_bytes<HiveCells>(v).cells;
    });
  }

  std::vector<CausationRow> rows;
  if (const Dict* causation = store.find_dict(kCausationDict)) {
    causation->for_each([&rows, &inputs](const std::string& key,
                                         const Bytes& v) {
      auto c1 = key.find(':');
      auto c2 = key.find(':', c1 + 1);
      CausationRow row;
      row.app = static_cast<AppId>(std::stoul(key.substr(0, c1)));
      row.in =
          static_cast<MsgTypeId>(std::stoul(key.substr(c1 + 1, c2 - c1 - 1)));
      row.out = static_cast<MsgTypeId>(std::stoul(key.substr(c2 + 1)));
      row.emitted = decode_from_bytes<HiveCells>(v).cells;
      auto it = inputs.find({row.app, row.in});
      row.inputs = it == inputs.end() ? 0 : it->second;
      row.ratio = row.inputs == 0 ? 0.0
                                  : static_cast<double>(row.emitted) /
                                        static_cast<double>(row.inputs);
      rows.push_back(row);
    });
  }
  return rows;
}

std::vector<CollectorApp::TransportRow> CollectorApp::transport_from_store(
    const StateStore& store) {
  std::vector<TransportRow> rows;
  if (const Dict* d = store.find_dict(kTransportDict)) {
    d->for_each([&rows](const std::string& key, const Bytes& value) {
      TransportAgg agg = decode_from_bytes<TransportAgg>(value);
      rows.push_back({static_cast<HiveId>(std::stoul(key)), agg.transport,
                      agg.migration_aborts, agg.partitions_active});
    });
  }
  return rows;
}

std::vector<PlacementRound> CollectorApp::decisions_from_store(
    const StateStore& store) {
  std::vector<PlacementRound> rounds;
  if (const Dict* d = store.find_dict(kDecisionsDict)) {
    d->for_each([&rounds](const std::string& key, const Bytes& value) {
      if (key == "next" || key == "tick") return;
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
  ClusterView view;
  view.n_hives = n_hives;
  if (const Dict* hives = store.find_dict(kHivesDict)) {
    hives->for_each([&view](const std::string& key, const Bytes& value) {
      view.hive_cells[static_cast<HiveId>(std::stoul(key))] =
          decode_from_bytes<HiveCells>(value).cells;
    });
  }
  if (const Dict* bees = store.find_dict(kBeesDict)) {
    bees->for_each([&view](const std::string&, const Bytes& value) {
      BeeAgg agg = decode_from_bytes<BeeAgg>(value);
      BeeView bee;
      bee.bee = agg.bee;
      bee.app = agg.app;
      bee.hive = agg.hive;
      bee.pinned = agg.pinned;
      bee.cells = agg.cells;
      bee.msgs_in = agg.msgs_in_window;
      bee.handler_invocations = agg.handler_invocations;
      bee.handler_failures = agg.handler_failures;
      bee.cost_us = agg.cost_us_window;
      for (const auto& [hive, count] : agg.inbound_by_hive) {
        bee.inbound_by_hive[hive] += count;
      }
      view.bees.push_back(std::move(bee));
    });
  }
  if (const Dict* pressure = store.find_dict(kPressureDict)) {
    pressure->for_each([&view](const std::string& key, const Bytes& value) {
      view.hive_pressure[static_cast<HiveId>(std::stoul(key))] =
          decode_from_bytes<HivePressure>(value).pressure;
    });
  }
  if (const Dict* latency = store.find_dict(kLatencyDict)) {
    LatencyFold fold;
    latency->for_each([&fold](const std::string& key, const Bytes& value) {
      fold.add(key, value);
    });
    view.latency = fold.finish();
  }
  return view;
}

}  // namespace beehive
