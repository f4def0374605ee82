#include "apps/nib.h"

#include "core/context.h"

namespace beehive {

NibApp::NibApp() : App("nib") {
  register_app_messages();
  const std::string dict(kDict);

  on<NibNodeUpdate>(
      [dict](const NibNodeUpdate& m) {
        return CellSet::single(dict, node_key(m.node));
      },
      [dict](AppContext& ctx, const NibNodeUpdate& m) {
        NibNode node = ctx.state()
                           .get_as<NibNode>(dict, node_key(m.node))
                           .value_or(NibNode{});
        node.id = m.node;
        node.set_attr(m.attr, m.value);
        ctx.state().put_as(dict, node_key(m.node), std::move(node));
      });

  on<NibLinkAdd>(
      [dict](const NibLinkAdd& m) {
        return CellSet::single(dict, node_key(m.from));
      },
      [dict](AppContext& ctx, const NibLinkAdd& m) {
        NibNode node = ctx.state()
                           .get_as<NibNode>(dict, node_key(m.from))
                           .value_or(NibNode{});
        node.id = m.from;
        node.add_neighbor(m.to);
        ctx.state().put_as(dict, node_key(m.from), std::move(node));
      });

  on<NibQuery>(
      [dict](const NibQuery& m) {
        return CellSet::single(dict, node_key(m.node));
      },
      [dict](AppContext& ctx, const NibQuery& m) {
        auto node = ctx.state().get_as<NibNode>(dict, node_key(m.node));
        NibReply reply;
        reply.query_id = m.query_id;
        if (node) {
          reply.found = true;
          for (const auto& [k, v] : node->attrs) {
            reply.attrs.push_back(k + "=" + v);
          }
          reply.neighbors = node->neighbors;
        }
        ctx.emit(std::move(reply));
      });
}

}  // namespace beehive
