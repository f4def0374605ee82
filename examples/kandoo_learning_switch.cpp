// Kandoo-style local control application (paper §4) on the *threaded*
// runtime: every controller runs on its own OS thread, and the learning
// switch's per-switch cells keep all packet processing local to each
// switch's master hive — Kandoo's "local controllers close to switches"
// emerges from the Map functions alone.
//
// Build & run:  ./build/examples/kandoo_learning_switch
#include <cstdio>

#include "apps/learning_switch.h"
#include "apps/messages.h"
#include "cluster/thread_cluster.h"
#include "core/context.h"
#include "util/rng.h"

using namespace beehive;

int main() {
  constexpr std::size_t kHives = 4;
  constexpr std::size_t kSwitches = 16;
  constexpr int kPackets = 4000;

  AppSet apps;
  apps.emplace<LearningSwitchApp>();

  ClusterConfig config;
  config.n_hives = kHives;
  config.hive.metrics_period = 0;
  ThreadCluster cluster(config, apps);
  cluster.start();

  std::printf("Injecting %d PacketIns for %zu switches across %zu "
              "controller threads...\n",
              kPackets, kSwitches, kHives);

  Xoshiro256 rng(2024);
  for (int i = 0; i < kPackets; ++i) {
    auto sw = static_cast<SwitchId>(rng.next_below(kSwitches));
    auto master = static_cast<HiveId>(sw * kHives / kSwitches);
    PacketIn pkt{sw, rng.next_below(64), rng.next_below(64),
                 static_cast<std::uint16_t>(rng.next_below(24))};
    cluster.post(master, [&cluster, master, pkt]() {
      cluster.hive(master).inject(
          MessageEnvelope::make(pkt, 0, kNoBee, master, cluster.now()));
    });
  }
  cluster.wait_idle();

  std::size_t bees = cluster.registry().live_bee_count();
  std::uint64_t handled = 0;
  std::uint64_t local = 0;
  std::uint64_t remote = 0;
  for (HiveId h = 0; h < kHives; ++h) {
    handled += cluster.hive(h).counters().handler_runs;
    local += cluster.hive(h).counters().routed_local;
    remote += cluster.hive(h).counters().routed_remote;
  }

  std::printf("done.\n");
  std::printf("  bees (one per switch): %zu\n", bees);
  std::printf("  handler invocations:   %llu\n",
              static_cast<unsigned long long>(handled));
  std::printf("  locally processed:     %.1f%%  (Kandoo's locality, derived "
              "from the Map function)\n",
              100.0 * static_cast<double>(local) /
                  static_cast<double>(local + remote));
  std::printf("  control-channel bytes: %llu (registry RPCs only)\n",
              static_cast<unsigned long long>(
                  cluster.meter().total_bytes()));

  // Show one learned table.
  for (const BeeRecord& rec : cluster.registry().live_bees()) {
    Bee* bee = cluster.hive(rec.hive).find_bee(rec.id);
    if (bee == nullptr) continue;
    if (const Dict* macs = bee->store().find_dict(LearningSwitchApp::kDict)) {
      macs->for_each([&rec](const std::string& sw, const Bytes& value) {
        MacTable table = decode_from_bytes<MacTable>(value);
        std::printf("  switch %s (hive %u): %zu MACs learned\n", sw.c_str(),
                    rec.hive, table.entries.size());
      });
    }
    break;  // one sample is enough
  }

  cluster.stop();
  return 0;
}
