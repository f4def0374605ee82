// Tests of the threaded in-process runtime: the same hive/bee/registry
// code as the simulator, but with each hive on its own OS thread. These
// verify that the platform's consistency guarantees survive real
// concurrency. The run-loop and FIFO tests are the ones CI runs under
// ThreadSanitizer on two CPUs: many small posts from several threads
// maximize interleavings.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/thread_cluster.h"
#include "tests/test_helpers.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace beehive {
namespace {

using testing::CounterApp;
using testing::I64;
using testing::Incr;
using testing::PairIncr;
using testing::SumQuery;

class ThreadClusterTest : public ::testing::Test {
 protected:
  ThreadClusterTest() { apps_.emplace<CounterApp>(); }

  ThreadCluster make(std::size_t n_hives) {
    ClusterConfig config;
    config.n_hives = n_hives;
    config.hive.metrics_period = 0;
    return ThreadCluster(config, apps_);
  }

  void inject(ThreadCluster& cluster, HiveId hive, Incr msg) {
    cluster.post(hive, [&cluster, hive, msg]() {
      cluster.hive(hive).inject(
          MessageEnvelope::make(msg, 0, kNoBee, hive, cluster.now()));
    });
  }

  std::int64_t counter_value(ThreadCluster& cluster, const std::string& key) {
    AppId app = apps_.find_by_name("test.counter")->id();
    std::int64_t value = -1;
    for (const BeeRecord& rec : cluster.registry().live_bees()) {
      if (rec.app != app) continue;
      Bee* bee = cluster.hive(rec.hive).find_bee(rec.id);
      if (bee == nullptr) continue;
      if (auto v = bee->store().dict(CounterApp::kDict).get_as<I64>(key)) {
        EXPECT_EQ(value, -1) << "key " << key << " present on two bees";
        value = v->v;
      }
    }
    return value;
  }

  AppSet apps_;
};

TEST_F(ThreadClusterTest, StartStopIsIdempotent) {
  ThreadCluster cluster = make(2);
  cluster.start();
  cluster.start();
  cluster.stop();
  cluster.stop();
}

TEST_F(ThreadClusterTest, SingleKeyAccumulatesAcrossThreads) {
  ThreadCluster cluster = make(4);
  cluster.start();
  constexpr int kPerHive = 50;
  for (int i = 0; i < kPerHive; ++i) {
    for (HiveId h = 0; h < 4; ++h) inject(cluster, h, Incr{"shared", 1});
  }
  cluster.wait_idle();
  EXPECT_EQ(counter_value(cluster, "shared"), 4 * kPerHive);
  cluster.stop();
}

TEST_F(ThreadClusterTest, ManyKeysLandOnTheirInjectingHives) {
  ThreadCluster cluster = make(4);
  cluster.start();
  for (int i = 0; i < 40; ++i) {
    inject(cluster, static_cast<HiveId>(i % 4),
           Incr{"k" + std::to_string(i), 1});
  }
  cluster.wait_idle();
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(counter_value(cluster, "k" + std::to_string(i)), 1);
  }
  // 40 bees, each on the hive that first saw its key.
  EXPECT_EQ(cluster.registry().live_bee_count(), 40u);
  cluster.stop();
}

TEST_F(ThreadClusterTest, ConcurrentMergesPreserveEveryIncrement) {
  ThreadCluster cluster = make(4);
  cluster.start();
  // Interleave per-key increments with pair messages that force merges,
  // from all four threads at once.
  for (int round = 0; round < 10; ++round) {
    for (HiveId h = 0; h < 4; ++h) {
      inject(cluster, h, Incr{"a", 1});
      inject(cluster, h, Incr{"b", 1});
      cluster.post(h, [&cluster, h]() {
        cluster.hive(h).inject(MessageEnvelope::make(
            PairIncr{"a", "b"}, 0, kNoBee, h, cluster.now()));
      });
    }
  }
  cluster.wait_idle();
  // 40 Incr{a} + 40 PairIncr = 80 (same for b). One bee owns both.
  EXPECT_EQ(counter_value(cluster, "a"), 80);
  EXPECT_EQ(counter_value(cluster, "b"), 80);
  cluster.stop();
}

TEST_F(ThreadClusterTest, MigrationUnderLiveTraffic) {
  ThreadCluster cluster = make(3);
  cluster.start();
  inject(cluster, 0, Incr{"m", 1});
  cluster.wait_idle();
  BeeId bee = cluster.registry().live_bees()[0].id;

  // Keep injecting while migrating back and forth.
  for (int i = 0; i < 60; ++i) {
    inject(cluster, static_cast<HiveId>(i % 3), Incr{"m", 1});
    if (i == 20) {
      cluster.post(0, [&cluster, bee]() {
        cluster.hive(0).request_migration(bee, 2);
      });
    }
    if (i == 40) {
      cluster.post(2, [&cluster, bee]() {
        cluster.hive(2).request_migration(bee, 1);
      });
    }
  }
  cluster.wait_idle();
  EXPECT_EQ(counter_value(cluster, "m"), 61);
  auto hive = cluster.registry().hive_of(bee);
  ASSERT_TRUE(hive.has_value());
  cluster.stop();
}

TEST_F(ThreadClusterTest, WholeDictCentralizationUnderConcurrency) {
  ThreadCluster cluster = make(4);
  cluster.start();
  for (int i = 0; i < 32; ++i) {
    inject(cluster, static_cast<HiveId>(i % 4),
           Incr{"c" + std::to_string(i), 1});
  }
  cluster.wait_idle();
  cluster.post(1, [&cluster]() {
    cluster.hive(1).inject(MessageEnvelope::make(SumQuery{1}, 0, kNoBee, 1,
                                                 cluster.now()));
  });
  cluster.wait_idle();
  AppId app = apps_.find_by_name("test.counter")->id();
  std::size_t bees = 0;
  for (const BeeRecord& rec : cluster.registry().live_bees()) {
    if (rec.app == app) ++bees;
  }
  EXPECT_EQ(bees, 1u);
  cluster.stop();
}

TEST_F(ThreadClusterTest, TimersFireOnThreadedRuntime) {
  struct TickerApp : App {
    explicit TickerApp(std::atomic<int>* counter) : App("test.ticker") {
      every(10 * kMillisecond,
            [](const MessageEnvelope&) {
              return CellSet::single("t", "cell");
            },
            [counter](AppContext&, const MessageEnvelope&) {
              counter->fetch_add(1);
            });
    }
  };
  std::atomic<int> ticks{0};
  AppSet apps;
  apps.emplace<TickerApp>(&ticks);
  ClusterConfig config;
  config.n_hives = 2;
  config.hive.metrics_period = 0;
  ThreadCluster cluster(config, apps);
  cluster.start();
  // Wait until the timer demonstrably fired a few times.
  for (int i = 0; i < 200 && ticks.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  cluster.stop();
  EXPECT_GE(ticks.load(), 3);
}

TEST_F(ThreadClusterTest, MeterSeesCrossHiveTraffic) {
  ThreadCluster cluster = make(2);
  cluster.start();
  inject(cluster, 0, Incr{"x", 1});
  cluster.wait_idle();
  inject(cluster, 1, Incr{"x", 1});  // crosses 1 -> 0
  cluster.wait_idle();
  EXPECT_GT(cluster.meter().total_bytes(), 0u);
  EXPECT_EQ(counter_value(cluster, "x"), 2);
  cluster.stop();
}

TEST_F(ThreadClusterTest, HealthScrapeRacesMetricsReports) {
  // The HTTP export path: a scrape thread reads every hive's health
  // snapshot, both renderings and the /metrics text while the hive loops
  // serve traffic and rewrite the snapshot every millisecond.
  ClusterConfig config;
  config.n_hives = 2;
  config.hive.metrics_period = kMillisecond;
  ThreadCluster cluster(config, apps_);
  cluster.start();

  std::atomic<bool> done{false};
  std::atomic<bool> saw_bees{false};
  std::size_t scrapes = 0;
  std::thread scraper([&] {
    while (!done.load()) {
      const HealthReport report = cluster.health();
      ASSERT_EQ(report.hives.size(), 2u);
      for (const HiveHealth& h : report.hives) {
        EXPECT_GE(h.signals.pressure, 0.0);
        EXPECT_LT(h.signals.pressure, 1.0);
        if (h.signals.bees > 0.0) saw_bees.store(true);
      }
      EXPECT_NE(report.to_text().find("hive 1"), std::string::npos);
      EXPECT_NE(cluster.health_json().find("\"pressure\""),
                std::string::npos);
      EXPECT_NE(cluster.metrics()->prometheus_text().find("beehive_pressure"),
                std::string::npos);
      ++scrapes;
    }
  });

  constexpr std::uint64_t kMessages = 2000;
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    inject(cluster, static_cast<HiveId>(i % 2),
           Incr{"k" + std::to_string(i % 16), 1});
  }
  const auto handled = [&cluster] {
    return cluster.hive(0).counters().handler_runs.get() +
           cluster.hive(1).counters().handler_runs.get();
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((handled() < kMessages || !saw_bees.load()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  scraper.join();
  cluster.stop();

  EXPECT_GE(handled(), kMessages);
  EXPECT_TRUE(saw_bees.load()) << "no report reached the health snapshot";
  EXPECT_GT(scrapes, 0u);
}

// -- The run loop: quiescence, watermark, parking, pinning ------------------

class RunLoopTest : public ThreadClusterTest {
 protected:
  ClusterConfig config(std::size_t n_hives) {
    ClusterConfig c;
    c.n_hives = n_hives;
    c.hive.metrics_period = 0;
    return c;
  }
};

TEST_F(RunLoopTest, WaitIdleSeesInFlightBatches) {
  // Hammer wait_idle while posting: every time wait_idle returns, all work
  // posted before the wait began must have executed, including work in a
  // swapped-out batch that is still running (the window `busy` covers).
  ThreadCluster cluster(config(1), apps_);
  cluster.start();

  std::atomic<std::uint64_t> executed{0};
  constexpr std::uint64_t kRounds = 200;
  constexpr std::uint64_t kPerRound = 50;
  std::uint64_t posted = 0;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::uint64_t i = 0; i < kPerRound; ++i) {
      cluster.post(0, [&executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
      ++posted;
    }
    cluster.wait_idle();
    ASSERT_EQ(executed.load(std::memory_order_relaxed), posted)
        << "wait_idle returned with in-flight work on round " << round;
  }
  cluster.stop();
}

TEST_F(RunLoopTest, WaitIdleUnderConcurrentPosting) {
  // A racing producer keeps wait_idle's passes from settling. After the
  // producer stops, one final wait_idle must observe everything.
  ThreadCluster cluster(config(2), apps_);
  cluster.start();

  std::atomic<std::uint64_t> executed{0};
  constexpr std::uint64_t kTotal = 5'000;
  std::thread producer([&cluster, &executed] {
    for (std::uint64_t i = 0; i < kTotal; ++i) {
      cluster.post(i % 2 == 0 ? 0 : 1, [&executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  for (int i = 0; i < 50; ++i) cluster.wait_idle();
  producer.join();
  cluster.wait_idle();
  EXPECT_EQ(executed.load(std::memory_order_relaxed), kTotal);
  cluster.stop();
}

TEST_F(RunLoopTest, BurstDeliversEveryMessage) {
  // End-to-end through the hive: a burst of posts, taken a few large
  // batches at a time, loses no increment.
  ThreadCluster cluster(config(1), apps_);
  cluster.start();
  constexpr int kN = 2'000;
  for (int i = 0; i < kN; ++i) inject(cluster, 0, Incr{"k", 1});
  cluster.wait_idle();
  EXPECT_GE(cluster.queue_stats(0).drained, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(counter_value(cluster, "k"), kN);
  cluster.stop();
}

TEST_F(RunLoopTest, PostedClosureReleasesCapturesOnceRun) {
  // The loop must not keep a run closure (and whatever it captured) alive
  // after running it: captured envelopes and frames are released at once.
  ThreadCluster cluster(config(1), apps_);
  cluster.start();
  auto value = std::make_shared<int>(7);
  cluster.post(0, [value] {});
  cluster.wait_idle();
  EXPECT_EQ(value.use_count(), 1);
  cluster.stop();
}

TEST_F(RunLoopTest, WatermarkSurfacesInQueueStats) {
  ThreadCluster cluster(config(1), apps_);
  cluster.start();
  // Hold the loop in a spinning closure so a burst piles up in the queue.
  std::atomic<bool> spinning{false};
  std::atomic<bool> release{false};
  cluster.post(0, [&spinning, &release] {
    spinning.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!spinning.load(std::memory_order_acquire)) std::this_thread::yield();
  for (int i = 0; i < 32; ++i) cluster.post(0, [] {});
  release.store(true, std::memory_order_release);
  cluster.wait_idle();
  EXPECT_GE(cluster.queue_stats(0).hwm, 32u);
  cluster.stop();
}

TEST_F(RunLoopTest, ParksAfterTheSpinBudgetAndWakesOnPost) {
  // A loop left with nothing to run spins only briefly: 20 ms idle is far
  // past the spin budget, so it must have blocked on its condition
  // variable, and a post must still wake it. metrics_period = 0 arms no
  // timer, so nothing else can wake it. The posted closures' captures
  // outlive the cluster, which joins its loop on destruction.
  std::atomic<int> ran{0};
  std::promise<void> woke;
  ThreadCluster cluster(config(1), apps_);
  ASSERT_NE(cluster.metrics(), nullptr);
  cluster.start();
  const auto parks = [&cluster] {
    const std::string text = cluster.metrics()->prometheus_text();
    const std::string series = "beehive_runq_parks_total{hive=\"0\"} ";
    const std::size_t pos = text.find(series);
    return pos == std::string::npos
               ? -1.0
               : std::atof(text.c_str() + pos + series.size());
  };
  cluster.post(0, [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  cluster.wait_idle();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(parks(), 1.0);

  std::future<void> done = woke.get_future();
  cluster.post(0, [&ran, &woke] {
    ran.fetch_add(1, std::memory_order_relaxed);
    woke.set_value();
  });
  ASSERT_EQ(done.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "a post to a parked loop did not wake it";
  cluster.wait_idle();
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 2);
  cluster.stop();
}

TEST_F(RunLoopTest, PinnedLoopsStillDeliver) {
  // pin_cpu is best-effort placement, never correctness: with pinning on
  // (wrapping around however few CPUs the process may use), traffic flows
  // exactly as unpinned.
  ClusterConfig c = config(2);
  c.hive.pin_cpu = 0;
  ThreadCluster cluster(c, apps_);
  cluster.start();
  for (int i = 0; i < 100; ++i) {
    inject(cluster, i % 2 == 0 ? 0 : 1, Incr{"p", 1});
  }
  cluster.wait_idle();
  std::uint64_t runs = 0;
  for (HiveId h = 0; h < 2; ++h) {
    runs += cluster.hive(h).counters().handler_runs;
  }
  cluster.stop();
  EXPECT_EQ(runs, 100u);
}

#if defined(__linux__)
TEST_F(RunLoopTest, PinningStaysInsideAllowedCpus) {
  // A process started on two of the machine's CPUs (taskset, a cgroup
  // cpuset) must pin each loop to one of those two, wrapping hive 2 back
  // onto the first. A threadsafe death test re-executes this binary from
  // this thread, so restricting the thread first starts the child on the
  // last two allowed CPUs: on an unrestricted machine, not CPUs 0 and 1.
  if (sysconf(_SC_NPROCESSORS_ONLN) < 3) GTEST_SKIP() << "needs 3 CPUs";
  struct AffinityRestore {
    cpu_set_t saved;
    AffinityRestore() { sched_getaffinity(0, sizeof(saved), &saved); }
    ~AffinityRestore() {
      pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved);
    }
  } restore;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &restore.saved)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) GTEST_SKIP() << "needs 2 allowed CPUs";
  const int allowed[2] = {cpus[cpus.size() - 2], cpus[cpus.size() - 1]};
  cpu_set_t two;
  CPU_ZERO(&two);
  CPU_SET(allowed[0], &two);
  CPU_SET(allowed[1], &two);
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(two), &two), 0);

  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        constexpr HiveId kHives = 3;
        ClusterConfig c = config(kHives);
        c.hive.pin_cpu = 0;
        std::vector<cpu_set_t> masks(kHives);
        ThreadCluster cluster(c, apps_);
        cluster.start();
        for (HiveId h = 0; h < kHives; ++h) {
          cluster.post(h, [&masks, h] {
            sched_getaffinity(0, sizeof(masks[h]), &masks[h]);
          });
        }
        cluster.wait_idle();
        cluster.stop();
        bool pinned = true;
        for (HiveId h = 0; h < kHives; ++h) {
          pinned = pinned && CPU_COUNT(&masks[h]) == 1 &&
                   CPU_ISSET(allowed[h % 2], &masks[h]);
        }
        std::exit(pinned ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}
#endif

// -- FIFO on real threads ----------------------------------------------------

class ThreadClusterFifo : public RunLoopTest {};

TEST_F(ThreadClusterFifo, ConcurrentPostersKeepPerProducerOrder) {
  // Four threads post numbered closures to one hive. Each closure spins
  // briefly, so the producers outrun the loop and its turns swap out
  // batches mixing several producers' tasks. Each producer's closures must
  // run in the order it posted them, and every one exactly once.
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5'000;
  ThreadCluster cluster(config(1), apps_);
  cluster.start();
  // Touched only on the loop thread until wait_idle returns.
  std::vector<std::uint64_t> next(kProducers, 0);
  std::uint64_t out_of_order = 0;
  std::uint64_t ran = 0;
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        cluster.post(0, [&, p, i] {
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::microseconds(1);
          while (std::chrono::steady_clock::now() < until) {
          }
          if (next[p] != i) ++out_of_order;
          next[p] = i + 1;
          ++ran;
        });
      }
    });
  }
  for (auto& t : producers) t.join();
  cluster.wait_idle();
  EXPECT_GT(cluster.queue_stats(0).hwm, 1u)
      << "producers never outran the loop";
  cluster.stop();
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_EQ(ran, kProducers * kPerProducer);
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next[p], kPerProducer) << "producer " << p;
  }
}

/// A message stamped with its source hive and a per-source sequence.
struct Numbered {
  static constexpr std::string_view kTypeName = "test.numbered";
  std::uint32_t src = 0;
  std::uint64_t seq = 0;

  void encode(ByteWriter& w) const {
    w.u32(src);
    w.u64(seq);
  }
  static Numbered decode(ByteReader& r) {
    Numbered m;
    m.src = r.u32();
    m.seq = r.u64();
    return m;
  }
};

/// One bee (a single cell) that logs each Numbered it handles per source.
class SeqLogApp : public App {
 public:
  explicit SeqLogApp(std::vector<std::vector<std::uint64_t>>* log)
      : App("test.seqlog") {
    on<Numbered>(
        [](const Numbered&) { return CellSet::single("seq", "sink"); },
        [log](AppContext&, const Numbered& m) {
          (*log)[m.src].push_back(m.seq);
        });
  }
};

/// Asks source `src`'s bee to emit Numbered{src, first} .. {src, first+n-1}.
struct Burst {
  static constexpr std::string_view kTypeName = "test.burst";
  std::uint32_t src = 0;
  std::uint64_t first = 0;
  std::uint32_t n = 0;

  void encode(ByteWriter& w) const {
    w.u32(src);
    w.u64(first);
    w.u32(n);
  }
  static Burst decode(ByteReader& r) {
    Burst m;
    m.src = r.u32();
    m.first = r.u64();
    m.n = r.u32();
    return m;
  }
};

/// One source bee per `src` (a cell per source); each Burst it handles
/// emits its run of Numbered messages in sequence order.
class BurstApp : public App {
 public:
  BurstApp() : App("test.burst") {
    on<Burst>(
        [](const Burst& m) {
          return CellSet::single("src", std::to_string(m.src));
        },
        [](AppContext& ctx, const Burst& m) {
          for (std::uint32_t i = 0; i < m.n; ++i) {
            ctx.emit(Numbered{m.src, m.first + i});
          }
        });
  }
};

TEST_F(ThreadClusterFifo, FramesKeepPerLinkOrderWithoutReliableTransport) {
  // Three source hives each emit numbered messages to one bee pinned on a
  // fourth hive, with the reliable transport off: nothing but the run
  // queue keeps each link's frames in order. Per-(src,dst) FIFO and zero
  // loss must hold anyway.
  constexpr HiveId kSink = 3;
  constexpr std::uint32_t kSources = 3;
  constexpr std::uint64_t kPerSource = 4'000;
  std::vector<std::vector<std::uint64_t>> log(kSources + 1);
  AppSet apps;
  apps.emplace<SeqLogApp>(&log);
  ClusterConfig config;
  config.n_hives = kSink + 1;
  config.hive.metrics_period = 0;
  ThreadCluster cluster(config, apps);
  cluster.start();
  const auto emit = [&cluster](HiveId hive, std::uint64_t seq) {
    cluster.post(hive, [&cluster, hive, seq] {
      cluster.hive(hive).inject(MessageEnvelope::make(
          Numbered{hive, seq}, 0, kNoBee, hive, cluster.now()));
    });
  };
  // The first message for the cell creates its bee where it was injected.
  emit(kSink, 0);
  cluster.wait_idle();
  ASSERT_EQ(log[kSink].size(), 1u);

  std::vector<std::thread> sources;
  for (HiveId src = 0; src < kSources; ++src) {
    sources.emplace_back([&emit, src] {
      for (std::uint64_t i = 0; i < kPerSource; ++i) emit(src, i);
    });
  }
  for (auto& t : sources) t.join();
  cluster.wait_idle();
  std::uint64_t remote = 0;
  for (HiveId src = 0; src < kSources; ++src) {
    remote += cluster.hive(src).counters().routed_remote;
  }
  cluster.stop();

  EXPECT_EQ(remote, kSources * kPerSource) << "messages did not cross hives";
  for (std::uint32_t src = 0; src < kSources; ++src) {
    ASSERT_EQ(log[src].size(), kPerSource) << "link " << src << " lost";
    for (std::uint64_t i = 0; i < kPerSource; ++i) {
      ASSERT_EQ(log[src][i], i) << "link " << src << " reordered";
    }
  }
}

TEST_F(ThreadClusterFifo, EmissionsKeepEmissionOrderLocalAndAcrossHives) {
  // One source bee per hive turns each Burst into eight Numbered emissions
  // to one sink bee on hive 2: hive 0's and hive 1's cross a hive boundary,
  // hive 2's stay local. Driver threads post the bursts unpaced, so the
  // flushes that route the emissions interleave with ingress and frames.
  // Each source's messages must reach the sink in the order its handlers
  // emitted them.
  constexpr HiveId kSinkHive = 2;
  constexpr std::uint32_t kSources = 3;
  constexpr std::uint64_t kBursts = 400;
  constexpr std::uint32_t kPerBurst = 8;
  // log[kSources] holds the message that creates the sink.
  std::vector<std::vector<std::uint64_t>> log(kSources + 1);
  AppSet apps;
  apps.emplace<SeqLogApp>(&log);
  apps.emplace<BurstApp>();
  ClusterConfig config;
  config.n_hives = kSources;
  config.hive.metrics_period = 0;
  ThreadCluster cluster(config, apps);
  cluster.start();
  // The first message for a cell creates its bee where it was injected.
  cluster.post(kSinkHive, [&cluster] {
    cluster.hive(kSinkHive).inject(MessageEnvelope::make(
        Numbered{kSources, 0}, 0, kNoBee, kSinkHive, cluster.now()));
  });
  cluster.wait_idle();
  ASSERT_EQ(log[kSources].size(), 1u);

  std::vector<std::thread> drivers;
  for (HiveId src = 0; src < kSources; ++src) {
    drivers.emplace_back([&cluster, src] {
      for (std::uint64_t b = 0; b < kBursts; ++b) {
        cluster.post(src, [&cluster, src, b] {
          cluster.hive(src).inject(MessageEnvelope::make(
              Burst{src, b * kPerBurst, kPerBurst}, 0, kNoBee, src,
              cluster.now()));
        });
      }
    });
  }
  for (auto& t : drivers) t.join();
  cluster.wait_idle();
  std::vector<std::uint64_t> remote(kSources);
  for (HiveId src = 0; src < kSources; ++src) {
    remote[src] = cluster.hive(src).counters().routed_remote;
  }
  cluster.stop();

  constexpr std::uint64_t kPerSource = kBursts * kPerBurst;
  for (std::uint32_t src = 0; src < kSources; ++src) {
    EXPECT_EQ(remote[src], src == kSinkHive ? 0 : kPerSource)
        << "source " << src << " is not on hive " << src;
    ASSERT_EQ(log[src].size(), kPerSource) << "source " << src << " lost";
    for (std::uint64_t i = 0; i < kPerSource; ++i) {
      ASSERT_EQ(log[src][i], i) << "source " << src << " reordered";
    }
  }
}

}  // namespace
}  // namespace beehive
