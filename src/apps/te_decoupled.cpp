#include "apps/te_decoupled.h"

#include "core/context.h"

namespace beehive {

TEDecoupledApp::TEDecoupledApp(TEConfig config) : App("te.decoupled") {
  register_app_messages();
  const std::string S(kStatsDict);
  const std::string R(kRouteDict);
  const std::string T(kTopoDict);

  // Init — unchanged from the naive design.
  on<SwitchJoined>(
      [S](const SwitchJoined& m) {
        return CellSet::single(S, switch_key(m.sw));
      },
      [S](AppContext& ctx, const SwitchJoined& m) {
        if (ctx.state().contains(S, switch_key(m.sw))) return;
        FlowSeriesEntry entry;
        entry.sw = m.sw;
        ctx.state().put_as(S, switch_key(m.sw), std::move(entry));
      });

  // Topology feeds Route's bee: link keys intersect Route's (T, "*").
  on<LinkDiscovered>(
      [T](const LinkDiscovered& m) {
        return CellSet::single(T, link_key(m.a, m.b));
      },
      [T](AppContext& ctx, const LinkDiscovered& m) {
        ctx.state().put_as(T, link_key(m.a, m.b), m);
      });

  // Collect — now also the aggregation point: it flags threshold
  // crossings and notifies Route with a small FlowRateAlarm instead of
  // sharing the S dictionary with it.
  on<FlowStatReply>(
      [S](const FlowStatReply& m) {
        return CellSet::single(S, switch_key(m.sw));
      },
      [S, config](AppContext& ctx, const FlowStatReply& m) {
        auto entry = ctx.state().get_as<FlowSeriesEntry>(S, switch_key(m.sw));
        if (!entry) return;
        entry->latest = m.stats;
        entry->samples += 1;
        for (const FlowStat& stat : m.stats) {
          if (stat.rate_kbps > config.delta_kbps) {
            if (!entry->is_flagged(stat.flow)) {
              entry->flag(stat.flow);
              ctx.emit(FlowRateAlarm{m.sw, stat.flow, stat.rate_kbps});
            }
          } else if (stat.rate_kbps <
                     config.delta_kbps * config.clear_fraction) {
            entry->unflag(stat.flow);  // hysteresis: re-arm the alarm
          }
        }
        ctx.state().put_as(S, switch_key(m.sw), std::move(*entry));
      });

  // Query — unchanged.
  every_foreach(config.query_period, S,
                [S](AppContext& ctx, const MessageEnvelope&) {
                  ctx.state().for_each<FlowSeriesEntry>(
                      S, [&ctx](const std::string&, const FlowSeriesEntry& e) {
                        ctx.emit(FlowStatQuery{e.sw});
                      });
                });

  // Route — reacts to alarms; owns only R (whole) and T (whole), both
  // small. No shared state with Collect/Query anymore.
  on<FlowRateAlarm>(
      [R, T](const FlowRateAlarm&) {
        return CellSet{{R, std::string(kAllKeys)},
                       {T, std::string(kAllKeys)}};
      },
      [R](AppContext& ctx, const FlowRateAlarm& m) {
        RouteLedger ledger =
            ctx.state().get_as<RouteLedger>(R, "ledger").value_or(
                RouteLedger{});
        ledger.alarms_seen += 1;
        // "Use T to reroute": derive an alternate path selector. The
        // ledger makes selection stateful (round-robin over paths).
        auto path = static_cast<std::uint32_t>(
            1 + ledger.flow_mods_emitted % 3);
        ledger.flow_mods_emitted += 1;
        ctx.state().put_as(R, "ledger", ledger);
        ctx.emit(FlowMod{m.sw, m.flow, path});
      });
}

}  // namespace beehive
