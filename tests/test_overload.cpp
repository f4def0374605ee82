// Tests for end-to-end overload control (DESIGN.md §10): credit-based
// flow control on the reliable transport (sender stalls, FIFO across
// stalls), bounded mailboxes with per-app block/shed policies, and the
// determinism property — a seeded run under backpressure AND fault
// injection is bit-identical across repeats.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/sim.h"
#include "core/overload.h"
#include "core/transport.h"
#include "core/wire.h"
#include "msg/codec.h"
#include "tests/test_helpers.h"

namespace beehive {
namespace {

using testing::CounterApp;
using testing::I64;
using testing::Incr;

// ---------------------------------------------------------------------------
// Test app: sequence-numbered messages recorded in arrival order (the sim
// is single-threaded, so a plain vector sink is safe).
// ---------------------------------------------------------------------------

struct SeqMsg {
  static constexpr std::string_view kTypeName = "test.overload_seq";
  std::uint32_t seq = 0;

  void encode(ByteWriter& w) const { w.u32(seq); }
  static SeqMsg decode(ByteReader& r) { return {r.u32()}; }
};

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

ClusterConfig bounded_config(std::uint32_t credit_window) {
  ClusterConfig cfg;
  cfg.n_hives = 2;
  cfg.hive.metrics_period = 0;
  cfg.hive.transport.enabled = true;
  cfg.hive.transport.credit_window = credit_window;
  return cfg;
}

void pin_to_hive_1(SimCluster& sim) {
  sim.registry().set_placement_hook(
      [](AppId, const CellSet&, HiveId) -> HiveId { return 1; });
}

// ---------------------------------------------------------------------------
// OverloadPolicy plumbing
// ---------------------------------------------------------------------------

TEST(OverloadPolicyNames, RoundTrip) {
  for (OverloadPolicy p :
       {OverloadPolicy::kBlockSender, OverloadPolicy::kShedNewest}) {
    auto back = overload_policy_from_string(to_string(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(overload_policy_from_string("bogus").has_value());
}

TEST(PriorityTypes, PlatformAndStatsPrefixesAreProtected) {
  const MsgTypeId metrics = MsgTypeRegistry::instance().ensure<
      LocalMetricsReport>();
  const MsgTypeId incr = MsgTypeRegistry::instance().ensure<Incr>();
  EXPECT_TRUE(Hive::is_priority_type(metrics));
  EXPECT_FALSE(Hive::is_priority_type(incr));
}

// ---------------------------------------------------------------------------
// Bounded mailbox policies (Bee::hold_bounded unit semantics)
// ---------------------------------------------------------------------------

MessageEnvelope seq_env(std::uint32_t seq) {
  return MessageEnvelope::make(SeqMsg{seq}, 0, kNoBee, 0, 0);
}

MessageEnvelope priority_env() {
  return MessageEnvelope::make(LocalMetricsReport{}, 0, kNoBee, 0, 0);
}

bool is_priority(MsgTypeId type) { return Hive::is_priority_type(type); }

TEST(BoundedMailbox, BlockSenderHoldsPastTheLimit) {
  Bee bee(1, 1);
  const OverloadConfig oc{true, 2, OverloadPolicy::kBlockSender};
  for (std::uint32_t i = 0; i < 2; ++i) bee.hold(seq_env(i));
  EXPECT_TRUE(bee.hold_bounded(seq_env(2), oc, is_priority));
  EXPECT_EQ(bee.holdback_size(), 3u) << "kBlockSender never sheds";
}

TEST(BoundedMailbox, ShedNewestDropsTheIncomingMessage) {
  Bee bee(1, 1);
  const OverloadConfig oc{true, 2, OverloadPolicy::kShedNewest};
  for (std::uint32_t i = 0; i < 2; ++i) bee.hold(seq_env(i));
  EXPECT_FALSE(bee.hold_bounded(seq_env(2), oc, is_priority));
  EXPECT_EQ(bee.holdback_size(), 2u);
  // The survivors are the oldest messages.
  auto held = bee.take_holdback();
  EXPECT_EQ(held.front().as<SeqMsg>().seq, 0u);
}

TEST(BoundedMailbox, PriorityMessagesNeverShedUnderAnyPolicy) {
  for (OverloadPolicy p :
       {OverloadPolicy::kShedNewest, OverloadPolicy::kBlockSender}) {
    Bee bee(1, 1);
    const OverloadConfig oc{true, 1, p};
    bee.hold(seq_env(0));
    EXPECT_TRUE(bee.hold_bounded(priority_env(), oc, is_priority))
        << "policy " << to_string(p);
    EXPECT_EQ(bee.holdback_size(), 2u);
  }
}

TEST(BoundedMailbox, LiveShedCarriesTheDroppedMessagesTrace) {
  // A migrating bee is frozen, so its mailbox fills; past the limit
  // kShedNewest drops the newcomer, and the kShed span must carry that
  // newcomer's trace (DESIGN.md §11), never a held message's.
  constexpr std::uint64_t kLimit = 4;
  constexpr std::uint64_t kExtra = 3;
  constexpr std::uint64_t kFirstTrace = 1000;
  AppSet apps;
  CounterApp& app = apps.emplace<CounterApp>();
  app.set_overload({.bounded = true,
                    .mailbox_limit = kLimit,
                    .policy = OverloadPolicy::kShedNewest});
  ClusterConfig cfg;
  cfg.n_hives = 2;
  cfg.hive.metrics_period = 0;
  cfg.tracing = true;
  SimCluster sim(cfg, apps);
  sim.start();
  sim.hive(0).inject(
      MessageEnvelope::make(Incr{"k", 1}, 0, kNoBee, 0, sim.now()));
  sim.run_to_idle();
  const std::vector<BeeRecord> bees = sim.registry().live_bees();
  ASSERT_EQ(bees.size(), 1u);
  ASSERT_EQ(bees.front().hive, 0u);

  // begin_migration freezes the bee at once; without advancing the sim,
  // every message lands in its mailbox or is shed.
  sim.hive(0).request_migration(bees.front().id, 1);
  for (std::uint64_t i = 0; i < kLimit + kExtra; ++i) {
    MessageEnvelope env =
        MessageEnvelope::make(Incr{"k", 1}, 0, kNoBee, 0, sim.now());
    env.set_trace(kFirstTrace + i, 0, sim.now());
    sim.hive(0).inject(std::move(env));
  }
  EXPECT_EQ(sim.hive(0).counters().shed_total, kExtra);
  std::multiset<std::uint64_t> newest;
  for (std::uint64_t i = kLimit; i < kLimit + kExtra; ++i) {
    newest.insert(kFirstTrace + i);
  }
  const auto shed_traces = [&sim] {
    std::multiset<std::uint64_t> ids;
    for (const TraceEvent& e : sim.trace_events()) {
      if (e.kind == SpanKind::kShed) ids.insert(e.trace_id);
    }
    return ids;
  };
  EXPECT_EQ(shed_traces(), newest);

  // The held messages follow the bee and run on the target hive; their
  // traces carry no shed.
  sim.run_to_idle();
  EXPECT_EQ(sim.registry().hive_of(bees.front().id), std::optional<HiveId>(1));
  std::set<std::uint64_t> handled_on_target;
  for (const TraceEvent& e : sim.trace_events()) {
    if (e.kind == SpanKind::kHandlerEnd && e.hive == 1) {
      handled_on_target.insert(e.trace_id);
    }
  }
  for (std::uint64_t i = 0; i < kLimit; ++i) {
    EXPECT_TRUE(handled_on_target.contains(kFirstTrace + i))
        << "trace " << kFirstTrace + i;
  }
  EXPECT_EQ(shed_traces(), newest);
}

// ---------------------------------------------------------------------------
// Sheddable-frame classification: control traffic is never dropped at the
// link's credit gate, whatever the policy.
// ---------------------------------------------------------------------------

TEST(SheddableFrames, OnlyPureAppTrafficIsSheddable) {
  Bytes app_frame;
  app_frame.push_back(static_cast<char>(FrameKind::kAppMsg));
  app_frame += "payload";
  EXPECT_TRUE(frame_is_sheddable(app_frame));

  Bytes control;
  control.push_back(static_cast<char>(FrameKind::kMigrateXfer));
  EXPECT_FALSE(frame_is_sheddable(control));

  ByteWriter app_batch;
  app_batch.u8(static_cast<std::uint8_t>(FrameKind::kBatch));
  app_batch.u32(2);
  for (int i = 0; i < 2; ++i) {
    app_batch.varint(app_frame.size());
    app_batch.raw(app_frame);
  }
  EXPECT_TRUE(frame_is_sheddable(std::move(app_batch).take()));

  ByteWriter mixed;
  mixed.u8(static_cast<std::uint8_t>(FrameKind::kBatch));
  mixed.u32(2);
  mixed.varint(app_frame.size());
  mixed.raw(app_frame);
  mixed.varint(control.size());
  mixed.raw(control);
  EXPECT_FALSE(frame_is_sheddable(std::move(mixed).take()))
      << "a batch carrying any control frame must never be shed";
}

// ---------------------------------------------------------------------------
// Credit windows on the wire
// ---------------------------------------------------------------------------

TEST(CreditFlow, SenderStallsAtTheWindowAndDrainsOnAck) {
  std::vector<std::uint32_t> order;
  AppSet apps;
  apps.emplace<OrderApp>(&order);
  SimCluster sim(bounded_config(/*credit_window=*/1), apps);
  pin_to_hive_1(sim);
  sim.start();

  // One frame per loop turn: with window 1 and acks at least
  // ReliableTransport::kAckDelay + kWireLatency away, every frame past the
  // first stalls.
  constexpr std::uint32_t kN = 10;
  for (std::uint32_t i = 0; i < kN; ++i) {
    sim.hive(0).inject(
        MessageEnvelope::make(SeqMsg{i}, 0, kNoBee, 0, sim.now()));
    sim.run_for(20 * kMicrosecond);
  }
  EXPECT_GT(sim.hive(0).transport_counters().frames_stalled, 0u)
      << "the credit gate must have engaged";
  EXPECT_GT(sim.hive(0).transport()->stalled_now(), 0u);
  EXPECT_TRUE(sim.hive(0).overloaded())
      << "stalled frames must surface through the admission signal";

  sim.run_to_idle();
  EXPECT_EQ(sim.hive(0).transport()->stalled_now(), 0u)
      << "acks must return credit and drain the stalled queue";
  EXPECT_FALSE(sim.hive(0).overloaded());
  ASSERT_EQ(order.size(), kN) << "stalling must not lose messages";
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_EQ(order[i], i) << "FIFO must survive the stall queue";
  }
  EXPECT_EQ(sim.hive(0).counters().shed_total, 0u);
}

TEST(CreditFlow, ShedNewestDropsAppBatchesPastTheStallLimit) {
  std::vector<std::uint32_t> order;
  AppSet apps;
  apps.emplace<OrderApp>(&order);
  ClusterConfig cfg = bounded_config(/*credit_window=*/1);
  cfg.hive.transport.stall_limit = 1;
  cfg.hive.transport.overload = OverloadPolicy::kShedNewest;
  SimCluster sim(cfg, apps);
  pin_to_hive_1(sim);
  sim.start();

  constexpr std::uint32_t kN = 12;
  for (std::uint32_t i = 0; i < kN; ++i) {
    sim.hive(0).inject(
        MessageEnvelope::make(SeqMsg{i}, 0, kNoBee, 0, sim.now()));
    sim.run_for(20 * kMicrosecond);
  }
  sim.run_to_idle();

  EXPECT_GT(sim.hive(0).counters().shed_total, 0u)
      << "overflow past the stall limit must shed under kShedNewest";
  EXPECT_GT(sim.hive(0).transport_counters().frames_shed, 0u);
  EXPECT_LT(order.size(), static_cast<std::size_t>(kN));
  for (std::size_t i = 1; i < order.size(); ++i) {
    ASSERT_LT(order[i - 1], order[i])
        << "survivors must still arrive in emission order";
  }
}

// ---------------------------------------------------------------------------
// Window-watermark queue stats (satellite: hwm resets on read)
// ---------------------------------------------------------------------------

TEST(QueueStatsWindow, HighWatermarkResetsOnRead) {
  AppSet apps;
  apps.emplace<CounterApp>();
  ClusterConfig cfg;
  cfg.n_hives = 1;
  cfg.hive.metrics_period = 0;
  SimCluster sim(cfg, apps);
  sim.start();
  sim.run_to_idle();

  for (int i = 0; i < 32; ++i) sim.schedule_after(0, kSecond, [] {});
  const QueueStats pending = sim.queue_stats(0);
  EXPECT_EQ(pending.depth, 32u);
  EXPECT_GE(pending.hwm, 32u);

  sim.run_to_idle();
  const QueueStats drained = sim.queue_stats(0);
  EXPECT_EQ(drained.depth, 0u);
  // The read above reset the watermark baseline to 32 (the then-current
  // depth); the drain never pushed past it.
  EXPECT_EQ(drained.hwm, 32u);
  const QueueStats quiet = sim.queue_stats(0);
  EXPECT_EQ(quiet.hwm, 0u)
      << "with no traffic since the last read, the window watermark must "
         "have reset to the current (zero) depth";
}

// ---------------------------------------------------------------------------
// The property (satellite): determinism + FIFO + zero loss with
// backpressure AND fault injection active, under kBlockSender.
// ---------------------------------------------------------------------------

TEST(OverloadProperties, DeterministicFifoLosslessUnderBackpressureAndFaults) {
  constexpr std::uint32_t kN = 300;
  auto run = [&]() {
    std::vector<std::uint32_t> order;
    AppSet apps;
    OrderApp& app = apps.emplace<OrderApp>(&order);
    app.set_overload({.bounded = true,
                      .mailbox_limit = 64,
                      .policy = OverloadPolicy::kBlockSender});
    ClusterConfig cfg = bounded_config(/*credit_window=*/4);
    cfg.seed = 20260809;
    SimCluster sim(cfg, apps);
    sim.faults().set_default_link({.drop = 0.1,
                                   .duplicate = 0.05,
                                   .jitter = 0.2,
                                   .jitter_max = 500 * kMicrosecond,
                                   .reorder = 0.1});
    pin_to_hive_1(sim);
    sim.start();
    for (std::uint32_t i = 0; i < kN; ++i) {
      sim.hive(0).inject(
          MessageEnvelope::make(SeqMsg{i}, 0, kNoBee, 0, sim.now()));
      if (i % 4 == 3) sim.run_for(100 * kMicrosecond);
    }
    sim.run_to_idle();
    return std::make_tuple(order, sim.hive(0).counters().shed_total + 0u,
                           sim.hive(0).transport_counters().frames_stalled +
                               0u,
                           sim.meter().total_bytes(),
                           sim.faults().stats().frames_dropped);
  };

  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b) << "a seeded run with credit stalls, sheds armed and an "
                     "active fault plan must be bit-identical across repeats";

  const auto& [order, shed, stalled, bytes, dropped] = a;
  EXPECT_GT(dropped, 0u) << "sanity: the fault plan must have been active";
  EXPECT_GT(stalled, 0u) << "sanity: backpressure must have engaged";
  EXPECT_EQ(shed, 0u) << "kBlockSender must never shed";
  ASSERT_EQ(order.size(), kN) << "zero lost non-shed messages";
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_EQ(order[i], i)
        << "per-pair FIFO must survive stalls + retransmits + reordering";
  }
}

}  // namespace
}  // namespace beehive
