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
                  std::vector<SwitchId> switches;
                  ctx.state().for_each(
                      S, [&switches](const std::string&, const Bytes& v) {
                        switches.push_back(
                            decode_from_bytes<FlowSeriesEntry>(v).sw);
                      });
                  for (SwitchId sw : switches) {
                    ctx.emit(FlowStatQuery{sw});
                  }
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
        ctx.state().for_each(
            S, [&](const std::string&, const Bytes& v) {
              FlowSeriesEntry entry = decode_from_bytes<FlowSeriesEntry>(v);
              bool dirty = false;
              for (const FlowStat& stat : entry.latest) {
                if (stat.rate_kbps > config.delta_kbps &&
                    !entry.is_flagged(stat.flow)) {
                  to_reroute.push_back({entry.sw, stat.flow});
                  entry.flag(stat.flow);
                  dirty = true;
                }
              }
              if (dirty) updated.push_back(std::move(entry));
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
