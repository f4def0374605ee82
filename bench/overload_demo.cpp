// Overload-control demo: a fast producer against a slow consumer.
//
// Two ThreadCluster hives. A SlowConsumer app is pinned to hive 1 (its
// handler burns ~1 ms per message); the driver injects on hive 0 roughly
// an order of magnitude faster than the consumer can drain. With a credit
// window on the link (DESIGN.md §10) the sender's transport stalls once
// the window fills, and what happens next is the `--policy` under test:
//
//   block       frames queue without loss; the producer throttles on
//               Hive::overloaded() (sender-side admission). Expect zero
//               sheds and the credit gauge pinned at 0.
//   shed-newest the stalled queue tail-drops app batches past the stall
//               limit. Expect a monotone shed_total and no producer stall.
//
// Control frames always queue, under every policy.
//
// Under every policy resident memory must stay bounded (the CI smoke
// asserts peak < 2x idle). The demo prints a one-line JSON object on
// stdout with the evidence:
//
//   {"policy":..., "seconds":..., "produced":..., "delivered":...,
//    "shed_total":..., "credits_min":..., "stalled_max":...,
//    "rss_idle_mb":..., "rss_peak_mb":...}
//
// Usage: overload_demo [--policy block|shed-newest] [--seconds N]
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include <unistd.h>

#include "cluster/thread_cluster.h"
#include "core/overload.h"
#include "tests/test_helpers.h"

namespace beehive {
namespace {

using testing::Incr;

std::atomic<std::uint64_t> g_consumed{0};

/// One cell, one bee on hive 1: every Incr costs ~1 ms of handler time,
/// so the consumer drains at most ~1k msgs/s no matter the offered load.
class SlowConsumerApp : public App {
 public:
  SlowConsumerApp() : App("demo.slow_consumer") {
    on<Incr>(
        [](const Incr& m) { return CellSet::single("slow", m.key); },
        [](AppContext&, const Incr&) {
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
          while (std::chrono::steady_clock::now() < until) {
          }
          g_consumed.fetch_add(1, std::memory_order_relaxed);
        });
  }
};

/// Resident set size from /proc/self/statm, in MiB (0 if unreadable).
double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t vm_pages = 0, rss_pages = 0;
  if (!(statm >> vm_pages >> rss_pages)) return 0.0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<double>(rss_pages) * static_cast<double>(page) /
         (1024.0 * 1024.0);
}

int run(int argc, char** argv) {
  OverloadPolicy policy = OverloadPolicy::kShedNewest;
  int seconds = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
      if (auto p = overload_policy_from_string(argv[++i])) {
        policy = *p;
      } else {
        std::fprintf(stderr, "unknown policy '%s'\n", argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atoi(argv[++i]);
      if (seconds <= 0) seconds = 1;
    } else {
      std::fprintf(stderr,
                   "usage: overload_demo [--policy block|shed-newest] "
                   "[--seconds N]\n");
      return 2;
    }
  }

  AppSet apps;
  SlowConsumerApp& consumer = apps.emplace<SlowConsumerApp>();
  consumer.set_overload(
      {.bounded = true, .mailbox_limit = 256, .policy = policy});

  ThreadClusterConfig cfg;
  cfg.n_hives = 2;
  cfg.hive.metrics_period = 50 * kMillisecond;
  cfg.hive.transport.enabled = true;
  cfg.hive.transport.credit_window = 8;
  cfg.hive.transport.stall_limit = 64;
  cfg.hive.transport.overload = policy;
  // The consumer is *supposed* to sit on its frames for a long time; keep
  // the retransmit machinery from abandoning the link in the meantime.
  cfg.hive.transport.rto_initial = 50 * kMillisecond;
  cfg.hive.transport.rto_max = 500 * kMillisecond;
  cfg.hive.transport.max_rounds = 100000;
  ThreadCluster cluster(cfg, apps);
  cluster.registry().set_placement_hook(
      [](AppId, const CellSet&, HiveId) -> HiveId { return 1; });
  cluster.start();

  // Warm the route (registry resolve + bee creation) before measuring the
  // idle footprint so RSS growth reflects queued traffic, not setup.
  cluster.post(0, [&cluster] {
    cluster.hive(0).inject(
        MessageEnvelope::make(Incr{"k", 1}, 0, kNoBee, 0, cluster.now()));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double rss_idle = rss_mb();
  double rss_peak = rss_idle;

  const bool admission = policy == OverloadPolicy::kBlockSender;
  std::uint64_t produced = 1;  // the warmup message
  std::int64_t credits_min = INT64_MAX;
  std::uint64_t stalled_max = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    // ~8k msgs/s offered vs ~1k/s drained: a burst of 8 every millisecond.
    if (!admission || !cluster.hive(0).overloaded()) {
      cluster.post(0, [&cluster] {
        MessageEnvelope msg =
            MessageEnvelope::make(Incr{"k", 1}, 0, kNoBee, 0, cluster.now());
        for (int i = 0; i < 8; ++i) cluster.hive(0).inject(msg);
      });
      produced += 8;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

    const HiveSignals sig = cluster.hive(0).health().signals;
    const auto credits = static_cast<std::int64_t>(sig.credits);
    if (credits >= 0 && credits < credits_min) credits_min = credits;
    const auto stalled = static_cast<std::uint64_t>(sig.stalled);
    if (stalled > stalled_max) stalled_max = stalled;
    const double rss = rss_mb();
    if (rss > rss_peak) rss_peak = rss;
  }

  const std::uint64_t shed = cluster.hive(0).counters().shed_total.get() +
                             cluster.hive(1).counters().shed_total.get();
  const std::uint64_t delivered = g_consumed.load(std::memory_order_relaxed);
  cluster.stop();
  if (credits_min == INT64_MAX) credits_min = -1;

  const std::string policy_name(to_string(policy));
  std::fprintf(stderr,
               "policy=%s produced=%llu delivered=%llu shed=%llu "
               "credits_min=%lld stalled_max=%llu rss=%.1f->%.1f MiB\n",
               policy_name.c_str(), static_cast<unsigned long long>(produced),
               static_cast<unsigned long long>(delivered),
               static_cast<unsigned long long>(shed),
               static_cast<long long>(credits_min),
               static_cast<unsigned long long>(stalled_max), rss_idle,
               rss_peak);
  std::printf(
      "{\"policy\":\"%s\",\"seconds\":%d,\"produced\":%llu,"
      "\"delivered\":%llu,\"shed_total\":%llu,\"credits_min\":%lld,"
      "\"stalled_max\":%llu,\"rss_idle_mb\":%.2f,\"rss_peak_mb\":%.2f}\n",
      policy_name.c_str(), seconds,
      static_cast<unsigned long long>(produced),
      static_cast<unsigned long long>(delivered),
      static_cast<unsigned long long>(shed),
      static_cast<long long>(credits_min),
      static_cast<unsigned long long>(stalled_max), rss_idle, rss_peak);
  return 0;
}

}  // namespace
}  // namespace beehive

int main(int argc, char** argv) { return beehive::run(argc, argv); }
