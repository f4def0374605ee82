// Unit tests for core plumbing: wire frame codecs, App/AppSet registration
// and binding resolution, timer semantics (mapped ticks fire once
// cluster-wide, foreach ticks fire per hive), and hive counters.
#include <gtest/gtest.h>

#include "cluster/sim.h"
#include "core/app.h"
#include "core/wire.h"
#include "tests/test_helpers.h"

namespace beehive {
namespace {

using testing::CounterQuery;
using testing::I64;
using testing::Incr;

// ---------------------------------------------------------------------------
// Wire frames
// ---------------------------------------------------------------------------

template <typename F>
F frame_round_trip(FrameKind kind, const F& frame) {
  Bytes wire = encode_frame(kind, frame);
  ByteReader r(wire);
  EXPECT_EQ(static_cast<FrameKind>(r.u8()), kind);
  return F::decode(r);
}

TEST(WireFrames, AppMsgRoundTrip) {
  const Bytes envelope = MessageEnvelope::make(Incr{"k", 1}).to_wire();
  ByteWriter w;
  write_app_msg(w, {make_bee_id(3, 77), 42, 5, envelope});
  ByteReader r(w.bytes());
  EXPECT_EQ(static_cast<FrameKind>(r.u8()), FrameKind::kAppMsg);
  const AppMsg back = read_app_msg(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.target, make_bee_id(3, 77));
  EXPECT_EQ(back.app, 42u);
  EXPECT_EQ(back.min_transfers, 5u);
  EXPECT_EQ(back.envelope, envelope);
  // The reader borrows the envelope from the frame bytes.
  EXPECT_GE(back.envelope.data(), w.bytes().data());
  EXPECT_LT(back.envelope.data(), w.bytes().data() + w.bytes().size());
  MessageEnvelope env = MessageEnvelope::from_wire(back.envelope);
  EXPECT_EQ(env.as<Incr>().key, "k");
}

TEST(WireFrames, MergeCmdRoundTrip) {
  MergeCmdFrame f{make_bee_id(1, 2), 9, make_bee_id(3, 4), 3};
  MergeCmdFrame back = frame_round_trip(FrameKind::kMergeCmd, f);
  EXPECT_EQ(back.loser, f.loser);
  EXPECT_EQ(back.winner, f.winner);
  EXPECT_EQ(back.winner_hive, 3u);
  EXPECT_EQ(back.app, 9u);
}

TEST(WireFrames, MigrateXferRoundTrip) {
  MigrateXferFrame f;
  f.bee = make_bee_id(2, 5);
  f.app = 7;
  f.is_merge = true;
  f.merge_target = make_bee_id(0, 1);
  f.src_hive = 2;
  f.transfers_applied = 11;
  f.transfers_required = 13;
  StateStore store;
  store.dict("d").put("k", "v");
  f.snapshot = store.snapshot();
  MigrateXferFrame back = frame_round_trip(FrameKind::kMigrateXfer, f);
  EXPECT_EQ(back.bee, f.bee);
  EXPECT_TRUE(back.is_merge);
  EXPECT_EQ(back.merge_target, f.merge_target);
  EXPECT_EQ(back.transfers_applied, 11u);
  EXPECT_EQ(back.transfers_required, 13u);
  StateStore restored = StateStore::from_snapshot(back.snapshot);
  EXPECT_EQ(restored.dict("d").get("k"), "v");
}

TEST(WireFrames, MigrationOrderAndAckRoundTrip) {
  MigrationOrderFrame order{make_bee_id(1, 1), 7};
  auto order_back = frame_round_trip(FrameKind::kMigrationOrder, order);
  EXPECT_EQ(order_back.bee, order.bee);
  EXPECT_EQ(order_back.to_hive, 7u);

  MigrateAckFrame ack{make_bee_id(4, 4)};
  auto ack_back = frame_round_trip(FrameKind::kMigrateAck, ack);
  EXPECT_EQ(ack_back.bee, ack.bee);
}

TEST(WireFrames, ReplicaFramesRoundTrip) {
  ReplicaTxnFrame txn;
  txn.bee = make_bee_id(1, 9);
  txn.app = 3;
  txn.writes.push_back({"d", "k1", false, "value"});
  txn.writes.push_back({"d", "k2", true, ""});
  auto txn_back = frame_round_trip(FrameKind::kReplicaTxn, txn);
  ASSERT_EQ(txn_back.writes.size(), 2u);
  EXPECT_EQ(txn_back.writes[0].value, "value");
  EXPECT_TRUE(txn_back.writes[1].erased);

  ReplicaSnapshotFrame snap;
  snap.bee = txn.bee;
  snap.app = 3;
  StateStore store;
  store.dict("x").put("y", "z");
  snap.snapshot = store.snapshot();
  auto snap_back = frame_round_trip(FrameKind::kReplicaSnapshot, snap);
  EXPECT_EQ(StateStore::from_snapshot(snap_back.snapshot).dict("x").get("y"),
            "z");
}

// ---------------------------------------------------------------------------
// Bee id helpers
// ---------------------------------------------------------------------------

TEST(BeeIds, PackAndUnpack) {
  BeeId id = make_bee_id(0xdead, 0xbeef);
  EXPECT_EQ(bee_home_hive(id), 0xdeadu);
  EXPECT_EQ(bee_counter(id), 0xbeefu);
  EXPECT_EQ(to_string_bee(id), "bee(57005/48879)");
  EXPECT_EQ(to_string_bee(kNoBee), "bee(io)");
}

// ---------------------------------------------------------------------------
// App registration
// ---------------------------------------------------------------------------

TEST(AppSetUnit, DuplicateNameRejected) {
  AppSet apps;
  apps.emplace<testing::CounterApp>();
  EXPECT_THROW(apps.emplace<testing::CounterApp>(), std::invalid_argument);
}

TEST(AppSetUnit, FindByIdAndName) {
  AppSet apps;
  App& counter = apps.emplace<testing::CounterApp>();
  EXPECT_EQ(apps.find(counter.id()), &counter);
  EXPECT_EQ(apps.find_by_name("test.counter"), &counter);
  EXPECT_EQ(apps.find_by_name("nope"), nullptr);
  EXPECT_EQ(apps.find(0xffffffff), nullptr);
}

TEST(AppSetUnit, SubscribersIndexedByType) {
  AppSet apps;
  apps.emplace<testing::CounterApp>();
  apps.emplace<testing::SinkApp>();
  auto names_for = [&apps](MsgTypeId type) {
    std::vector<std::string> names;
    apps.for_each_subscriber(
        type, [&names, type](App& app, const HandlerBinding& binding) {
          EXPECT_EQ(binding.msg_type, type);
          names.push_back(app.name());
        });
    return names;
  };
  EXPECT_EQ(names_for(msg_type_id<Incr>()),
            std::vector<std::string>{"test.counter"});
  // CounterValue: only the sink subscribes.
  EXPECT_EQ(names_for(msg_type_id<testing::CounterValue>()),
            std::vector<std::string>{"test.sink"});
  EXPECT_TRUE(names_for(0xdeadbeef).empty());
}

TEST(AppUnit, AppIdIsStableHashOfName) {
  testing::CounterApp a;
  EXPECT_EQ(a.id(), fnv1a32("test.counter"));
}

// ---------------------------------------------------------------------------
// Timer semantics
// ---------------------------------------------------------------------------

struct MappedTicker : App {
  explicit MappedTicker() : App("test.mapped_ticker") {
    every(kSecond,
          [](const MessageEnvelope&) {
            return CellSet::single("mt", "cell");
          },
          [](AppContext& ctx, const MessageEnvelope&) {
            I64 n = ctx.state().get_as<I64>("mt", "cell").value_or(I64{});
            n.v += 1;
            ctx.state().put_as("mt", "cell", n);
          });
  }
};

TEST(TimerSemantics, MappedTimerFiresOnceClusterWide) {
  AppSet apps;
  apps.emplace<MappedTicker>();
  ClusterConfig config;
  config.n_hives = 5;
  config.hive.metrics_period = 0;
  config.hive.timers_until = 3 * kSecond + kMillisecond;
  SimCluster sim(config, apps);
  sim.start();
  sim.run_until(3 * kSecond + 2 * kMillisecond);
  sim.run_to_idle();

  // Exactly one bee, ticked once per second — not once per hive.
  ASSERT_EQ(sim.registry().live_bee_count(), 1u);
  BeeRecord rec = sim.registry().live_bees()[0];
  Bee* bee = sim.hive(rec.hive).find_bee(rec.id);
  ASSERT_NE(bee, nullptr);
  auto n = bee->store().dict("mt").get_as<I64>("cell");
  ASSERT_TRUE(n.has_value());
  EXPECT_GE(n->v, 3);
  EXPECT_LE(n->v, 4);
  // The tick bee lives on the timer master (hive 0 by default).
  EXPECT_EQ(rec.hive, 0u);
}

struct ForeachTicker : App {
  explicit ForeachTicker() : App("test.foreach_ticker") {
    on<Incr>(
        [](const Incr& m) { return CellSet::single("ft", m.key); },
        [](AppContext& ctx, const Incr& m) {
          ctx.state().put_as("ft", m.key, I64{0});
        });
    every_foreach(kSecond, "ft",
                  [](AppContext& ctx, const MessageEnvelope&) {
                    std::vector<std::string> keys;
                    ctx.state().for_each<I64>(
                        "ft", [&keys](const std::string& k, const I64&) {
                          keys.push_back(k);
                        });
                    for (const std::string& k : keys) {
                      I64 n = ctx.state().get_as<I64>("ft", k).value_or(I64{});
                      n.v += 1;
                      ctx.state().put_as("ft", k, n);
                    }
                  });
  }
};

TEST(TimerSemantics, ForeachTimerTicksEveryBeeOncePerPeriod) {
  AppSet apps;
  apps.emplace<ForeachTicker>();
  ClusterConfig config;
  config.n_hives = 3;
  config.hive.metrics_period = 0;
  config.hive.timers_until = 2 * kSecond + kMillisecond;
  SimCluster sim(config, apps);
  sim.start();
  // One cell per hive, created before the first tick.
  for (HiveId h = 0; h < 3; ++h) {
    sim.hive(h).inject(MessageEnvelope::make(
        Incr{"k" + std::to_string(h), 1}, 0, kNoBee, h, sim.now()));
  }
  sim.run_until(2 * kSecond + 2 * kMillisecond);
  sim.run_to_idle();

  // Each bee's counter advanced ~2 (one per period), independent of the
  // cluster size — foreach ticks are per-bee, not per-hive-per-bee.
  for (HiveId h = 0; h < 3; ++h) {
    for (Bee* bee : sim.hive(h).local_bees()) {
      bee->store().dict("ft").for_each(
          [](const std::string& k, const Bytes& v) {
            std::int64_t n = decode_from_bytes<I64>(v).v;
            EXPECT_GE(n, 2) << k;
            EXPECT_LE(n, 3) << k;
          });
    }
  }
}

// ---------------------------------------------------------------------------
// Hive counters
// ---------------------------------------------------------------------------

TEST(HiveCounters, TrackRoutingAndHandlers) {
  AppSet apps;
  apps.emplace<testing::CounterApp>();
  apps.emplace<testing::SinkApp>();
  ClusterConfig config;
  config.n_hives = 2;
  config.hive.metrics_period = 0;
  SimCluster sim(config, apps);
  sim.start();

  sim.hive(0).inject(
      MessageEnvelope::make(Incr{"k", 1}, 0, kNoBee, 0, sim.now()));
  sim.run_to_idle();
  EXPECT_EQ(sim.hive(0).counters().injected, 1u);
  EXPECT_EQ(sim.hive(0).counters().routed_local, 1u);
  EXPECT_EQ(sim.hive(0).counters().handler_runs, 1u);

  sim.hive(1).inject(
      MessageEnvelope::make(CounterQuery{"k"}, 0, kNoBee, 1, sim.now()));
  sim.run_to_idle();
  EXPECT_EQ(sim.hive(1).counters().routed_remote, 1u);
  // The reply (CounterValue) was emitted on hive 0 and routed to the sink
  // bee created on hive 0: local.
  EXPECT_EQ(sim.hive(0).counters().handler_runs, 3u);  // incr+query+sink
}

}  // namespace
}  // namespace beehive
