// Tests for the dispatch hot path: batched frame egress (coalescing,
// per-link FIFO, span pairing, determinism under faults), the single-Map
// dispatch contract, untrusted-length clamps, the threaded runtime's
// condition-variable quiescence, and allocation budgets for the local,
// local-emission, learning-switch read-modify-write and remote
// steady-state routes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/host_location.h"
#include "apps/learning_switch.h"
#include "apps/messages.h"
#include "apps/te_common.h"
#include "cluster/sim.h"
#include "cluster/thread_cluster.h"
#include "msg/codec.h"
#include "tests/alloc_counter.h"
#include "tests/test_helpers.h"

namespace beehive {
namespace {

using testing::CounterApp;
using testing::CounterQuery;
using testing::I64;
using testing::Incr;
using testing::NoopSinkApp;

// ---------------------------------------------------------------------------
// Test apps
// ---------------------------------------------------------------------------

/// Sequence-numbered message: the order probe for per-link FIFO tests.
struct SeqMsg {
  static constexpr std::string_view kTypeName = "test.seq";
  std::uint32_t seq = 0;

  void encode(ByteWriter& w) const { w.u32(seq); }
  static SeqMsg decode(ByteReader& r) { return {r.u32()}; }
};

/// Routes every SeqMsg to one cell and records arrival order into a
/// test-owned sink (the sim is single-threaded, so no locking).
class OrderApp : public App {
 public:
  explicit OrderApp(std::vector<std::uint32_t>* sink) : App("test.order") {
    on<SeqMsg>(
        [](const SeqMsg&) { return CellSet::single("ord", "all"); },
        [sink](AppContext& ctx, const SeqMsg& m) {
          sink->push_back(m.seq);
          ctx.state().put_as("ord", "all", I64{m.seq});
        });
  }
};

/// CounterApp clone whose Map invocations are counted: the probe for the
/// "Map runs exactly once per mapped message" contract.
class CountingMapApp : public App {
 public:
  explicit CountingMapApp(std::atomic<std::uint64_t>* map_calls)
      : App("test.counting_map") {
    on<Incr>(
        [map_calls](const Incr& m) {
          map_calls->fetch_add(1, std::memory_order_relaxed);
          return CellSet::single("cnt", m.key);
        },
        [](AppContext& ctx, const Incr& m) {
          I64 v = ctx.state().get_as<I64>("cnt", m.key).value_or(I64{});
          v.v += m.amount;
          ctx.state().put_as("cnt", m.key, v);
        });
  }
};

ClusterConfig two_hive_config() {
  ClusterConfig cfg;
  cfg.n_hives = 2;
  cfg.hive.metrics_period = 0;
  return cfg;
}

/// Pins every placement to hive 1 so injections on hive 0 always cross the
/// control channel.
void pin_to_hive_1(SimCluster& sim) {
  sim.registry().set_placement_hook(
      [](AppId, const CellSet&, HiveId) -> HiveId { return 1; });
}

// ---------------------------------------------------------------------------
// Batching semantics
// ---------------------------------------------------------------------------

TEST(DispatchBatching, BurstCoalescesIntoFewWireUnits) {
  AppSet apps;
  apps.emplace<CounterApp>();
  SimCluster sim(two_hive_config(), apps);
  pin_to_hive_1(sim);
  sim.start();

  // Prime placement and caches, then measure the wire units of a burst.
  sim.hive(0).inject(
      MessageEnvelope::make(Incr{"k", 1}, 0, kNoBee, 0, sim.now()));
  sim.run_to_idle();
  sim.meter().reset();

  constexpr int kBurst = 100;
  for (int i = 0; i < kBurst; ++i) {
    sim.hive(0).inject(
        MessageEnvelope::make(Incr{"k", 1}, 0, kNoBee, 0, sim.now()));
  }
  sim.run_to_idle();

  EXPECT_EQ(sim.hive(1).counters().handler_runs, 1u + kBurst);
  // All 100 app frames were appended before the single flush event ran, so
  // they crossed as one kBatch unit (plus at most a handful of protocol
  // frames, e.g. replica traffic — none here).
  EXPECT_LE(sim.meter().matrix_messages(0, 1), 3u)
      << "a same-turn burst must coalesce into a few wire units";
  EXPECT_GE(sim.meter().matrix_bytes(0, 1),
            static_cast<std::uint64_t>(kBurst) *
                MessageEnvelope::kFixedHeaderBytes)
      << "batching must not drop the per-message byte accounting";
}

TEST(DispatchBatching, PerLinkFifoOrderPreserved) {
  std::vector<std::uint32_t> order;
  AppSet apps;
  apps.emplace<OrderApp>(&order);
  SimCluster sim(two_hive_config(), apps);
  pin_to_hive_1(sim);
  sim.start();

  constexpr std::uint32_t kN = 500;
  for (std::uint32_t i = 0; i < kN; ++i) {
    sim.hive(0).inject(
        MessageEnvelope::make(SeqMsg{i}, 0, kNoBee, 0, sim.now()));
  }
  sim.run_to_idle();

  ASSERT_EQ(order.size(), kN);
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_EQ(order[i], i) << "messages on one (source,dest) link must "
                              "arrive in emission order";
  }
}

TEST(DispatchBatching, ChannelSpansPairedWithBatching) {
  AppSet apps;
  apps.emplace<CounterApp>();
  ClusterConfig cfg = two_hive_config();
  cfg.tracing = true;
  SimCluster sim(cfg, apps);
  pin_to_hive_1(sim);
  sim.start();

  constexpr int kBurst = 50;
  for (int i = 0; i < kBurst; ++i) {
    sim.hive(0).inject(
        MessageEnvelope::make(Incr{"k", 1}, 0, kNoBee, 0, sim.now()));
  }
  sim.run_to_idle();

  std::size_t n_sends = 0;
  std::set<std::uint64_t> sends, recvs;
  for (const TraceEvent& e : sim.trace_events()) {
    if (e.kind == SpanKind::kChannelSend) {
      ++n_sends;
      sends.insert(e.aux);
    }
    if (e.kind == SpanKind::kChannelRecv) recvs.insert(e.aux);
  }
  ASSERT_FALSE(sends.empty()) << "burst must cross the channel";
  EXPECT_EQ(sends.size(), n_sends) << "frame sequence ids must be unique";
  EXPECT_EQ(sends, recvs) << "every sent batch must be received exactly once";
  EXPECT_LT(n_sends, static_cast<std::size_t>(kBurst))
      << "spans must be per wire unit (batch), not per message";
}

TEST(DispatchBatching, SameSeedDeterministicUnderFaults) {
  auto run = []() {
    AppSet apps;
    apps.emplace<CounterApp>();
    ClusterConfig cfg = two_hive_config();
    cfg.seed = 1234;
    cfg.hive.transport.enabled = true;  // batches are the transport's units
    SimCluster sim(cfg, apps);
    sim.faults().set_default_link({.drop = 0.1,
                                   .duplicate = 0.05,
                                   .jitter = 0.2,
                                   .jitter_max = 500 * kMicrosecond,
                                   .reorder = 0.1});
    pin_to_hive_1(sim);
    sim.start();
    for (int i = 0; i < 200; ++i) {
      sim.hive(i % 2).inject(MessageEnvelope::make(
          Incr{"k" + std::to_string(i % 5), 1}, 0, kNoBee,
          static_cast<HiveId>(i % 2), sim.now()));
      if (i % 10 == 9) sim.run_for(300 * kMicrosecond);
    }
    sim.run_to_idle();
    std::uint64_t runs = 0;
    for (HiveId h = 0; h < 2; ++h) {
      runs += sim.hive(h).counters().handler_runs;
    }
    return std::make_tuple(runs, sim.meter().total_bytes(),
                           sim.meter().total_messages(),
                           sim.faults().stats().frames_dropped,
                           sim.faults().stats().frames_duplicated);
  };
  EXPECT_EQ(run(), run()) << "batched egress must stay bit-deterministic "
                             "under an active fault plan";
}

// ---------------------------------------------------------------------------
// Single-Map dispatch
// ---------------------------------------------------------------------------

/// Parameter: how many keys the injected messages cycle through. One key
/// repeats the same cells on every message; two alternating keys ("k0",
/// "k1") change them on every message.
class SingleMapLocalDispatch : public ::testing::TestWithParam<int> {};

TEST_P(SingleMapLocalDispatch, LocalDeliveryRunsMapOnce) {
  std::atomic<std::uint64_t> map_calls{0};
  AppSet apps;
  apps.emplace<CountingMapApp>(&map_calls);
  ClusterConfig cfg;
  cfg.n_hives = 1;
  cfg.hive.metrics_period = 0;
  SimCluster sim(cfg, apps);
  sim.start();

  const int n_keys = GetParam();
  constexpr int kN = 100;
  for (int i = 0; i < kN; ++i) {
    sim.hive(0).inject(MessageEnvelope::make(
        Incr{"k" + std::to_string(i % n_keys), 1}, 0, kNoBee, 0, sim.now()));
  }
  sim.run_to_idle();

  EXPECT_EQ(sim.hive(0).counters().handler_runs, kN);
  EXPECT_EQ(map_calls.load(), static_cast<std::uint64_t>(kN))
      << "the dispatch Map result must be reused for the handler's access "
         "policy, not recomputed at bind time";
}

INSTANTIATE_TEST_SUITE_P(Keys, SingleMapLocalDispatch, ::testing::Values(1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param);
                         });

TEST(SingleMapDispatch, RemoteDeliveryRunsMapOncePerHive) {
  std::atomic<std::uint64_t> map_calls{0};
  AppSet apps;
  apps.emplace<CountingMapApp>(&map_calls);
  SimCluster sim(two_hive_config(), apps);
  pin_to_hive_1(sim);
  sim.start();

  constexpr int kN = 100;
  for (int i = 0; i < kN; ++i) {
    sim.hive(0).inject(
        MessageEnvelope::make(Incr{"k0", 1}, 0, kNoBee, 0, sim.now()));
  }
  sim.run_to_idle();

  EXPECT_EQ(sim.hive(1).counters().handler_runs, kN);
  // Once on the resolving hive (routing) + once on the owning hive (access
  // policy): the Map result is not shipped, so twice total — and no more.
  EXPECT_EQ(map_calls.load(), 2u * kN);
}

// ---------------------------------------------------------------------------
// Untrusted-length clamp
// ---------------------------------------------------------------------------

TEST(DecodeClamp, HugeVectorCountUnderrunsInsteadOfAllocating) {
  ByteWriter huge;
  huge.varint(std::uint64_t{1} << 60);  // claimed count, no elements follow
  ByteWriter series;                    // FlowSeriesEntry up to `flagged`
  series.u32(7);                        // sw
  series.u32(1);                        // samples
  series.varint(0);                     // latest: empty
  series.varint(std::uint64_t{1} << 60);
  // decode_vector and the cell decoders that restore migrated and
  // replicated state all read an untrusted count.
  const std::vector<std::pair<Bytes, std::function<void(ByteReader&)>>>
      inputs = {
          {huge.bytes(), [](ByteReader& r) { decode_vector<I64>(r); }},
          {huge.bytes(), [](ByteReader& r) { MacTable::decode(r); }},
          {huge.bytes(), [](ByteReader& r) { HostBucket::decode(r); }},
          {series.bytes(), [](ByteReader& r) { FlowSeriesEntry::decode(r); }},
      };
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    ByteReader r(inputs[i].first);
    const std::uint64_t before = testing::allocation_count();
    EXPECT_THROW(inputs[i].second(r), DecodeError);
    const std::uint64_t spent = testing::allocation_count() - before;
    // The clamp bounds the pre-reserve to the bytes actually present
    // (~10): a corrupt count must not turn into a multi-GB allocation.
    EXPECT_LE(spent, 4u);
  }
}

TEST(DecodeClamp, ReplicaTxnFrameCountClamped) {
  ByteWriter w;
  ReplicaTxnFrame f;
  f.bee = 1;
  f.app = 2;
  f.encode(w);
  Bytes wire = std::move(w).take();
  // Overwrite the (empty) writes count with a huge varint and truncate.
  wire.resize(wire.size() - 1);
  ByteWriter tail;
  tail.varint(std::uint64_t{1} << 50);
  wire += std::move(tail).take();
  ByteReader r(wire);
  EXPECT_THROW(ReplicaTxnFrame::decode(r), DecodeError);
}

// ---------------------------------------------------------------------------
// ThreadCluster quiescence (condition-variable wait_idle)
// ---------------------------------------------------------------------------

TEST(ThreadClusterIdle, WaitIdleReturnsAfterBurst) {
  AppSet apps;
  apps.emplace<CounterApp>();
  ClusterConfig cfg;
  cfg.n_hives = 2;
  cfg.metrics = false;
  cfg.hive.metrics_period = 0;
  cfg.hive.timers_until = 0;  // no timer wakeups: idle is a fixpoint
  ThreadCluster cluster(cfg, apps);
  cluster.start();
  cluster.wait_idle();  // post-start quiescence

  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 25; ++i) {
      cluster.post(static_cast<HiveId>(i % 2), [&cluster, i]() {
        cluster.hive(static_cast<HiveId>(i % 2))
            .inject(MessageEnvelope::make(Incr{"k" + std::to_string(i % 3), 1},
                                          0, kNoBee,
                                          static_cast<HiveId>(i % 2), 0));
      });
    }
    cluster.wait_idle();
  }
  std::uint64_t runs = 0;
  for (HiveId h = 0; h < 2; ++h) {
    runs += cluster.hive(h).counters().handler_runs;
  }
  EXPECT_EQ(runs, 20u * 25u) << "wait_idle must imply all posted work "
                                "(and its transitive dispatch) completed";
  cluster.stop();
}

// ---------------------------------------------------------------------------
// Allocation budgets (steady state)
// ---------------------------------------------------------------------------

TEST(DispatchAllocs, LocalSteadyStateIsAllocationFree) {
  AppSet apps;
  apps.emplace<CounterApp>();
  ClusterConfig cfg;
  cfg.n_hives = 1;
  cfg.hive.metrics_period = 0;
  SimCluster sim(cfg, apps);
  sim.start();

  MessageEnvelope msg =
      MessageEnvelope::make(Incr{"k0", 1}, 0, kNoBee, 0, sim.now());
  for (int i = 0; i < 2000; ++i) sim.hive(0).inject(msg);  // warm everything
  sim.run_to_idle();

  constexpr std::uint64_t kN = 5000;
  const std::uint64_t runs_before = sim.hive(0).counters().handler_runs;
  const std::uint64_t before = testing::allocation_count();
  for (std::uint64_t i = 0; i < kN; ++i) sim.hive(0).inject(msg);
  sim.run_to_idle();
  const std::uint64_t allocs = testing::allocation_count() - before;

  ASSERT_EQ(sim.hive(0).counters().handler_runs - runs_before, kN);
  EXPECT_EQ(allocs, 0u)
      << "the warmed local dispatch+handler path must not touch the heap";
}

TEST(DispatchAllocs, BoundedLocalSteadyStateIsAllocationFree) {
  // Satellite of DESIGN.md §10: turning on a mailbox bound and a credit
  // window must not cost the local fast path anything — the bound is only
  // consulted on the (cold) hold path, and credit bookkeeping lives in the
  // remote transport.
  AppSet apps;
  CounterApp& app = apps.emplace<CounterApp>();
  app.set_overload({.bounded = true,
                    .mailbox_limit = 64,
                    .policy = OverloadPolicy::kShedNewest});
  ClusterConfig cfg;
  cfg.n_hives = 1;
  cfg.hive.metrics_period = 0;
  cfg.hive.transport.credit_window = 8;
  SimCluster sim(cfg, apps);
  sim.start();

  MessageEnvelope msg =
      MessageEnvelope::make(Incr{"k0", 1}, 0, kNoBee, 0, sim.now());
  for (int i = 0; i < 2000; ++i) sim.hive(0).inject(msg);  // warm everything
  sim.run_to_idle();

  constexpr std::uint64_t kN = 5000;
  const std::uint64_t runs_before = sim.hive(0).counters().handler_runs;
  const std::uint64_t before = testing::allocation_count();
  for (std::uint64_t i = 0; i < kN; ++i) sim.hive(0).inject(msg);
  sim.run_to_idle();
  const std::uint64_t allocs = testing::allocation_count() - before;

  ASSERT_EQ(sim.hive(0).counters().handler_runs - runs_before, kN);
  EXPECT_EQ(sim.hive(0).counters().shed_total, 0u)
      << "an unloaded bounded mailbox must not shed";
  EXPECT_EQ(allocs, 0u)
      << "bounded mailboxes and credit bookkeeping must add zero "
         "allocations per message on the warmed local path";
}

TEST(DispatchAllocs, LocalEmissionWithinTwoAllocsPerMessage) {
  // Each query's handler emits one CounterValue to a sink bee on the same
  // hive. What the emission may cost is its body and the first push into
  // the handler's emission buffer; the outbox hop to the sink is free.
  // With the 8-char key the value encodes to 17 bytes, past the small-
  // string buffer: sizing the payload must not allocate an encoding.
  for (const char* key : {"k0", "counter8"}) {
    SCOPED_TRACE(key);
    AppSet apps;
    apps.emplace<CounterApp>();
    apps.emplace<NoopSinkApp>();
    ClusterConfig cfg;
    cfg.n_hives = 1;
    cfg.hive.metrics_period = 0;
    SimCluster sim(cfg, apps);
    sim.start();

    constexpr std::uint64_t kN = 5000;
    const MessageEnvelope query =
        MessageEnvelope::make(CounterQuery{key}, 0, kNoBee, 0, sim.now());
    const auto burst = [&sim, &query] {
      for (std::uint64_t i = 0; i < kN; ++i) sim.hive(0).inject(query);
      sim.run_to_idle();
    };
    // The outbox and the vector the flush swaps it with each grow to the
    // burst size in one flush.
    burst();
    burst();

    const std::uint64_t runs_before = sim.hive(0).counters().handler_runs;
    const std::uint64_t before = testing::allocation_count();
    burst();
    const std::uint64_t allocs = testing::allocation_count() - before;

    ASSERT_EQ(sim.hive(0).counters().handler_runs - runs_before, 2 * kN)
        << "every query and every emitted value must run a handler";
    // A burst schedules one flush event; the simulator's event wrapper may
    // allocate for it.
    constexpr std::uint64_t kPerBurst = 4;
    EXPECT_LE(allocs, 2 * kN + kPerBurst)
        << "a local emission must cost at most 2 allocations per message; "
           "got "
        << allocs << " allocs for " << kN << " queries";
  }
}

TEST(DispatchAllocs, LearningSwitchTableRmwWithinFourAllocsPerPacketIn) {
  // One switch whose MAC table holds 64 hosts: every PacketIn copies the
  // table out of its cell, learns, and moves it back in (2 allocations),
  // then emits a PacketOut (2 more; see LocalEmissionWithinTwo...). Nothing
  // in between may encode or decode the table.
  AppSet apps;
  apps.emplace<LearningSwitchApp>();
  ClusterConfig cfg;
  cfg.n_hives = 1;
  cfg.hive.metrics_period = 0;
  SimCluster sim(cfg, apps);
  sim.start();

  constexpr std::uint64_t kHosts = 64;
  std::vector<MessageEnvelope> packets;
  for (std::uint64_t h = 0; h < kHosts; ++h) {
    const PacketIn in{1, 0x1000 + h, 0x1000 + (h + 1) % kHosts,
                      static_cast<std::uint16_t>(1 + h)};
    packets.push_back(MessageEnvelope::make(in, 0, kNoBee, 0, sim.now()));
  }
  constexpr std::uint64_t kRounds = 50;
  const auto burst = [&sim, &packets] {
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      for (const MessageEnvelope& p : packets) sim.hive(0).inject(p);
    }
    sim.run_to_idle();
  };
  burst();  // learns every host and grows the hive's buffers
  burst();

  const std::uint64_t runs_before = sim.hive(0).counters().handler_runs;
  const std::uint64_t before = testing::allocation_count();
  burst();
  const std::uint64_t allocs = testing::allocation_count() - before;

  const std::uint64_t n = kRounds * kHosts;
  ASSERT_EQ(sim.hive(0).counters().handler_runs - runs_before, n);
  constexpr std::uint64_t kPerBurst = 4;  // the flush event, as above
  EXPECT_LE(allocs, 4 * n + kPerBurst)
      << "a learning-switch PacketIn must cost at most 4 allocations; got "
      << allocs << " allocs for " << n << " packets";
}

TEST(DispatchAllocs, RemoteSteadyStateWithinTwoAllocsPerMessage) {
  AppSet apps;
  apps.emplace<CounterApp>();
  SimCluster sim(two_hive_config(), apps);
  pin_to_hive_1(sim);
  sim.start();

  MessageEnvelope msg =
      MessageEnvelope::make(Incr{"k0", 1}, 0, kNoBee, 0, sim.now());
  constexpr std::uint64_t kBurst = 2000;
  for (std::uint64_t i = 0; i < kBurst; ++i) sim.hive(0).inject(msg);
  sim.run_to_idle();  // warm caches, scratch buffers, event queue capacity

  constexpr std::uint64_t kRounds = 3;
  const std::uint64_t runs_before = sim.hive(1).counters().handler_runs;
  const std::uint64_t before = testing::allocation_count();
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::uint64_t i = 0; i < kBurst; ++i) sim.hive(0).inject(msg);
    sim.run_to_idle();
  }
  const std::uint64_t allocs = testing::allocation_count() - before;

  const std::uint64_t delivered =
      sim.hive(1).counters().handler_runs - runs_before;
  ASSERT_EQ(delivered, kRounds * kBurst);
  EXPECT_LE(static_cast<double>(allocs) / static_cast<double>(delivered), 2.0)
      << "remote dispatch must average <= 2 allocations per message "
         "(typed body materialization + amortized batch machinery); got "
      << allocs << " allocs for " << delivered << " messages";
}

}  // namespace
}  // namespace beehive
