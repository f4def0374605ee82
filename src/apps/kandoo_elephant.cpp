#include "apps/kandoo_elephant.h"

#include "core/context.h"
#include "msg/registry.h"

namespace beehive {

ElephantDetectorApp::ElephantDetectorApp(KandooConfig config)
    : App("kandoo.detect") {
  register_app_messages();
  MsgTypeRegistry::instance().ensure<ElephantDetected>();
  const std::string dict(kDict);

  // A switch joining creates the detector's local cell on its master hive.
  on<SwitchJoined>(
      [dict](const SwitchJoined& m) {
        return CellSet::single(dict, switch_key(m.sw));
      },
      [dict](AppContext& ctx, const SwitchJoined& m) {
        if (ctx.state().contains(dict, switch_key(m.sw))) return;
        FlowSeriesEntry entry;
        entry.sw = m.sw;
        ctx.state().put_as(dict, switch_key(m.sw), std::move(entry));
      });

  // Frequent local polling: Kandoo's whole point is that this heavy
  // query/reply traffic stays inside each switch's local controller.
  every_foreach(config.poll_period, dict,
                [dict](AppContext& ctx, const MessageEnvelope&) {
                  ctx.state().for_each<FlowSeriesEntry>(
                      dict,
                      [&ctx](const std::string&, const FlowSeriesEntry& e) {
                        ctx.emit(FlowStatQuery{e.sw});
                      });
                });

  // Detection: emit a (rare) ElephantDetected on upward threshold
  // crossings, with hysteresis so re-detections stay bounded.
  on<FlowStatReply>(
      [dict](const FlowStatReply& m) {
        return CellSet::single(dict, switch_key(m.sw));
      },
      [dict, config](AppContext& ctx, const FlowStatReply& m) {
        auto entry =
            ctx.state().get_as<FlowSeriesEntry>(dict, switch_key(m.sw));
        if (!entry) return;
        entry->latest = m.stats;
        entry->samples += 1;
        for (const FlowStat& stat : m.stats) {
          if (stat.rate_kbps > config.elephant_kbps) {
            if (!entry->is_flagged(stat.flow)) {
              entry->flag(stat.flow);
              ctx.emit(ElephantDetected{m.sw, stat.flow, stat.rate_kbps});
            }
          } else if (stat.rate_kbps <
                     config.elephant_kbps * config.clear_fraction) {
            entry->unflag(stat.flow);
          }
        }
        ctx.state().put_as(dict, switch_key(m.sw), std::move(*entry));
      });
}

ElephantRerouteApp::ElephantRerouteApp() : App("kandoo.reroute") {
  register_app_messages();
  MsgTypeRegistry::instance().ensure<ElephantDetected>();
  const std::string dict(kDict);

  // Root app: whole-dict map = one centralized bee, as in Kandoo's root
  // controller — but placed by the platform, not by the developer.
  on<ElephantDetected>(
      [dict](const ElephantDetected&) { return CellSet::whole_dict(dict); },
      [dict](AppContext& ctx, const ElephantDetected& m) {
        RouteLedger ledger =
            ctx.state().get_as<RouteLedger>(dict, "ledger").value_or(
                RouteLedger{});
        ledger.alarms_seen += 1;
        auto path =
            static_cast<std::uint32_t>(1 + ledger.flow_mods_emitted % 3);
        ledger.flow_mods_emitted += 1;
        ctx.state().put_as(dict, "ledger", ledger);
        ctx.emit(FlowMod{m.sw, m.flow, path});
      });
}

}  // namespace beehive
