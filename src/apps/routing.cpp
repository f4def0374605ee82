#include "apps/routing.h"

#include "core/context.h"

namespace beehive {

RoutingApp::RoutingApp() : App("routing") {
  register_app_messages();
  const std::string dict(kDict);

  on<RouteAnnounce>(
      [dict](const RouteAnnounce& m) {
        return CellSet::single(dict, bucket_key(m.prefix));
      },
      [dict](AppContext& ctx, const RouteAnnounce& m) {
        const std::string key = bucket_key(m.prefix);
        PrefixTable table =
            ctx.state().get_as<PrefixTable>(dict, key).value_or(
                PrefixTable{});
        table.upsert(m);
        ctx.state().put_as(dict, key, std::move(table));
      });

  on<RouteWithdraw>(
      [dict](const RouteWithdraw& m) {
        return CellSet::single(dict, bucket_key(m.prefix));
      },
      [dict](AppContext& ctx, const RouteWithdraw& m) {
        const std::string key = bucket_key(m.prefix);
        auto table = ctx.state().get_as<PrefixTable>(dict, key);
        if (!table) return;
        if (table->remove(m.prefix, m.mask_len)) {
          ctx.state().put_as(dict, key, std::move(*table));
        }
      });

  on<RouteQuery>(
      [dict](const RouteQuery& m) {
        return CellSet::single(dict, bucket_key(m.addr));
      },
      [dict](AppContext& ctx, const RouteQuery& m) {
        auto table =
            ctx.state().get_as<PrefixTable>(dict, bucket_key(m.addr));
        RouteResult result;
        result.query_id = m.query_id;
        if (table) {
          if (auto best = table->lookup(m.addr)) {
            result.found = true;
            result.prefix = best->prefix;
            result.mask_len = best->mask_len;
            result.next_hop = best->next_hop;
          }
        }
        ctx.emit(std::move(result));
      });
}

}  // namespace beehive
