// Kandoo emulation bench (paper §1: Beehive "covers a variety of
// scenarios ranging from implementing different network applications to
// emulating existing distributed controllers (such as ONIX and Kandoo)").
//
// Reproduces Kandoo's elephant-flow experiment shape: compare
//   (a) kandoo-style  — local detector per switch + centralized rerouter
//       fed by rare ElephantDetected events;
//   (b) centralized   — every FlowStatReply streams to one root app.
// Kandoo's claim, which must reproduce here: the local design keeps the
// frequent stats traffic off the control channel, so channel bytes stay
// roughly flat in (a) and grow with the network in (b).
#include <cstdio>
#include <memory>

#include "apps/kandoo_elephant.h"
#include "apps/te_common.h"
#include "cluster/sim.h"
#include "core/context.h"
#include "net/driver.h"
#include "net/fabric.h"

using namespace beehive;

namespace {

/// The strawman: a root app that ingests every stats reply centrally.
class CentralElephantApp : public App {
 public:
  CentralElephantApp() : App("central.elephant") {
    register_app_messages();
    const std::string dict = "central";

    on<SwitchJoined>(
        [dict](const SwitchJoined&) { return CellSet::whole_dict(dict); },
        [dict](AppContext& ctx, const SwitchJoined& m) {
          FlowSeriesEntry entry;
          entry.sw = m.sw;
          ctx.state().put_as(dict, switch_key(m.sw), entry);
        });

    every_foreach(kSecond, dict,
                  [dict](AppContext& ctx, const MessageEnvelope&) {
                    ctx.state().for_each<FlowSeriesEntry>(
                        dict,
                        [&ctx](const std::string&, const FlowSeriesEntry& e) {
                          ctx.emit(FlowStatQuery{e.sw});
                        });
                  });

    on<FlowStatReply>(
        [dict](const FlowStatReply&) { return CellSet::whole_dict(dict); },
        [dict](AppContext& ctx, const FlowStatReply& m) {
          auto entry =
              ctx.state().get_as<FlowSeriesEntry>(dict, switch_key(m.sw));
          if (!entry) return;
          entry->latest = m.stats;
          for (const FlowStat& stat : m.stats) {
            if (stat.rate_kbps > 1000.0 && !entry->is_flagged(stat.flow)) {
              entry->flag(stat.flow);
              ctx.emit(FlowMod{m.sw, stat.flow, 1});
            }
          }
          ctx.state().put_as(dict, switch_key(m.sw), *entry);
        });
  }
};

struct Row {
  std::uint64_t wire_kb = 0;
  std::uint64_t flow_mods = 0;
  double locality = 0.0;
};

Row run(bool kandoo, std::size_t n_hives, std::size_t n_switches) {
  AppSet apps;
  TreeTopology topology(n_switches, 4, n_hives);
  NetworkFabric fabric{TreeTopology(topology)};
  apps.emplace<OpenFlowDriverApp>(&fabric);
  if (kandoo) {
    apps.emplace<ElephantDetectorApp>();
    apps.emplace<ElephantRerouteApp>();
  } else {
    apps.emplace<CentralElephantApp>();
  }

  ClusterConfig config;
  config.n_hives = n_hives;
  config.hive.metrics_period = 0;
  config.hive.timers_until = 15 * kSecond;
  SimCluster sim(config, apps);
  sim.start();
  fabric.connect_all([&sim](HiveId hive, MessageEnvelope env) {
    sim.hive(hive).inject(std::move(env));
  });
  sim.run_until(15 * kSecond);
  sim.run_to_idle();

  Row row;
  row.wire_kb = sim.meter().total_bytes() / 1024;
  row.flow_mods = fabric.total_flow_mods();
  std::uint64_t local = 0, remote = 0;
  for (HiveId h = 0; h < n_hives; ++h) {
    local += sim.hive(h).counters().routed_local;
    remote += sim.hive(h).counters().routed_remote;
  }
  row.locality = (local + remote) == 0
                     ? 0.0
                     : static_cast<double>(local) /
                           static_cast<double>(local + remote);
  return row;
}

}  // namespace

int main() {
  std::printf("Kandoo emulation: elephant detection, local vs centralized "
              "(15 s simulated, 10 switches/hive)\n\n");
  std::printf("%-12s %7s %9s %12s %12s %10s\n", "design", "hives",
              "switches", "wire(KB)", "flow_mods", "locality");

  const std::size_t sizes[][2] = {{4, 40}, {8, 80}, {16, 160}};
  std::uint64_t kandoo_kb[3] = {0, 0, 0};
  std::uint64_t central_kb[3] = {0, 0, 0};
  for (bool kandoo : {true, false}) {
    for (std::size_t i = 0; i < 3; ++i) {
      Row row = run(kandoo, sizes[i][0], sizes[i][1]);
      std::printf("%-12s %7zu %9zu %12llu %12llu %10.2f\n",
                  kandoo ? "kandoo-local" : "centralized", sizes[i][0],
                  sizes[i][1], static_cast<unsigned long long>(row.wire_kb),
                  static_cast<unsigned long long>(row.flow_mods),
                  row.locality);
      (kandoo ? kandoo_kb : central_kb)[i] = row.wire_kb;
    }
    std::printf("\n");
  }

  // Kandoo's claim, compared at matched network sizes: local detection
  // must beat centralized streaming by a wide margin everywhere.
  bool ok = true;
  for (std::size_t i = 0; i < 3; ++i) {
    double ratio = static_cast<double>(central_kb[i]) /
                   static_cast<double>(std::max<std::uint64_t>(1, kandoo_kb[i]));
    std::printf("[%s] %zu switches: centralized uses %.1fx the control "
                "bytes of kandoo-local\n",
                ratio > 4.0 ? "PASS" : "FAIL", sizes[i][1], ratio);
    ok &= ratio > 4.0;
  }
  return ok ? 0 : 1;
}
