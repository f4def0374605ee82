#include "apps/te_naive.h"

#include "core/context.h"

namespace beehive {

TENaiveApp::TENaiveApp(TEConfig config) : App("te.naive") {
  register_app_messages();
  const std::string S(kStatsDict);
  const std::string T(kTopoDict);

  // Init: on SwitchJoined, with S[joined.switch].
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

  // Topology: links land in T. Each key intersects Route's (T, "*"), so
  // they collocate with Route — consistent with "only used as a whole".
  on<LinkDiscovered>(
      [T](const LinkDiscovered& m) {
        return CellSet::single(T, link_key(m.a, m.b));
      },
      [T](AppContext& ctx, const LinkDiscovered& m) {
        ctx.state().put_as(T, link_key(m.a, m.b), m);
      });

  // Collect: on StatReply, with S[reply.switch].
  on<FlowStatReply>(
      [S](const FlowStatReply& m) {
        return CellSet::single(S, switch_key(m.sw));
      },
      [S](AppContext& ctx, const FlowStatReply& m) {
        auto entry = ctx.state().get_as<FlowSeriesEntry>(S, switch_key(m.sw));
        if (!entry) return;  // stats for a switch we never initialized
        entry->latest = m.stats;
        entry->samples += 1;
        ctx.state().put_as(S, switch_key(m.sw), std::move(*entry));
      });

  // Query: on TimeOut(1s), foreach switch in S.
  every_foreach(config.query_period, S,
                [S](AppContext& ctx, const MessageEnvelope&) {
                  ctx.state().for_each<FlowSeriesEntry>(
                      S, [&ctx](const std::string&, const FlowSeriesEntry& e) {
                        ctx.emit(FlowStatQuery{e.sw});
                      });
                });

  // Route: on TimeOut(1s), with S and T — the centralizing whole-dict map.
  every(
      config.route_period,
      [S, T](const MessageEnvelope&) {
        return CellSet{{S, std::string(kAllKeys)},
                       {T, std::string(kAllKeys)}};
      },
      [S, config](AppContext& ctx, const MessageEnvelope&) {
        struct Change {
          SwitchId sw;
          std::uint32_t flow;
        };
        std::vector<Change> to_reroute;
        std::vector<FlowSeriesEntry> updated;
        ctx.state().for_each<FlowSeriesEntry>(
            S, [&](const std::string&, const FlowSeriesEntry& entry) {
              // Copy the entry only once one of its flows is flagged.
              FlowSeriesEntry* flagged = nullptr;
              for (const FlowStat& stat : entry.latest) {
                const FlowSeriesEntry& seen = flagged ? *flagged : entry;
                if (stat.rate_kbps > config.delta_kbps &&
                    !seen.is_flagged(stat.flow)) {
                  if (flagged == nullptr) {
                    flagged = &updated.emplace_back(entry);
                  }
                  to_reroute.push_back({entry.sw, stat.flow});
                  flagged->flag(stat.flow);
                }
              }
            });
        for (FlowSeriesEntry& entry : updated) {
          const std::string key = switch_key(entry.sw);
          ctx.state().put_as(S, key, std::move(entry));
        }
        std::uint32_t path = 1;
        for (const Change& c : to_reroute) {
          // "Use T to reroute flows": pick an alternate path selector.
          ctx.emit(FlowMod{c.sw, c.flow, path});
        }
      });
}

}  // namespace beehive
