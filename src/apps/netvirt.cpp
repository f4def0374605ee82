#include "apps/netvirt.h"

#include "core/context.h"

namespace beehive {

NetVirtApp::NetVirtApp() : App("netvirt") {
  register_app_messages();
  const std::string dict(kDict);

  on<VnCreate>(
      [dict](const VnCreate& m) {
        return CellSet::single(dict, vn_key(m.vn));
      },
      [dict](AppContext& ctx, const VnCreate& m) {
        if (ctx.state().contains(dict, vn_key(m.vn))) return;
        VnState state;
        state.vn = m.vn;
        ctx.state().put_as(dict, vn_key(m.vn), std::move(state));
      });

  on<VnAttach>(
      [dict](const VnAttach& m) {
        return CellSet::single(dict, vn_key(m.vn));
      },
      [dict](AppContext& ctx, const VnAttach& m) {
        auto state = ctx.state().get_as<VnState>(dict, vn_key(m.vn));
        if (!state) return;  // attach to unknown VN: ignored
        // New switch in the overlay: mesh it with the existing switches.
        if (!state->has_switch(m.sw)) {
          std::vector<SwitchId> peers;
          for (const VnAttach& e : state->endpoints) {
            if (e.sw != m.sw &&
                std::find(peers.begin(), peers.end(), e.sw) == peers.end()) {
              peers.push_back(e.sw);
            }
          }
          for (SwitchId peer : peers) {
            ctx.emit(TunnelInstall{m.vn, m.sw, peer});
          }
        }
        state->endpoints.push_back(m);
        ctx.state().put_as(dict, vn_key(m.vn), std::move(*state));
      });

  on<VnDetach>(
      [dict](const VnDetach& m) {
        return CellSet::single(dict, vn_key(m.vn));
      },
      [dict](AppContext& ctx, const VnDetach& m) {
        auto state = ctx.state().get_as<VnState>(dict, vn_key(m.vn));
        if (!state) return;
        std::erase_if(state->endpoints, [&m](const VnAttach& e) {
          return e.sw == m.sw && e.mac == m.mac;
        });
        ctx.state().put_as(dict, vn_key(m.vn), std::move(*state));
      });
}

}  // namespace beehive
