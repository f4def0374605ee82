#include "apps/learning_switch.h"

#include "apps/messages.h"
#include "core/context.h"

namespace beehive {

LearningSwitchApp::LearningSwitchApp() : App("learning_switch") {
  register_app_messages();
  const std::string dict(kDict);

  on<PacketIn>(
      [dict](const PacketIn& m) {
        return CellSet::single(dict, switch_key(m.sw));
      },
      [dict](AppContext& ctx, const PacketIn& m) {
        MacTable table = ctx.state()
                             .get_as<MacTable>(dict, switch_key(m.sw))
                             .value_or(MacTable{});
        table.learn(m.src_mac, m.in_port);
        const MacTable::Entry* known = table.find(m.dst_mac);
        const std::uint16_t out_port =
            known != nullptr ? known->port : kFloodPort;
        ctx.state().put_as(dict, switch_key(m.sw), std::move(table));
        ctx.emit(PacketOut{m.sw, m.dst_mac, out_port});
      });
}

}  // namespace beehive
