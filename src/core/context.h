// AppContext: everything a handler may do during one invocation.
//
// Handlers run inside a transaction. State writes and emitted messages are
// both provisional until the handler returns normally: a throwing handler
// rolls the transaction back and its emissions are discarded, so a failed
// invocation is externally invisible (atomic handler semantics).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "msg/message.h"
#include "placement/strategy.h"
#include "state/txn.h"
#include "util/types.h"

namespace beehive {

class Hive;
class Bee;

class AppContext {
 public:
  /// The caller owns `policy` and it outlives the context (the hive runs
  /// the handler synchronously inside the dispatch frame), so no
  /// AccessPolicy is copied or moved. `txn_scratch` is optional reusable
  /// undo/redo log storage owned by the dispatching hive; see Txn::Scratch.
  AppContext(StateStore& store, const AccessPolicy* policy, AppId app,
             BeeId bee, HiveId hive, TimePoint now, MsgTypeId in_reply_to,
             Txn::Scratch* txn_scratch = nullptr)
      : txn_(store, policy, txn_scratch),
        app_(app),
        bee_(bee),
        hive_(hive),
        now_(now),
        in_reply_to_(in_reply_to) {}

  /// Transactional access to the bee's cells.
  Txn& state() { return txn_; }

  /// Emits an asynchronous message (buffered; routed after commit).
  template <WireEncodable T>
  void emit(T message) {
    emitted_.push_back(
        MessageEnvelope::make(std::move(message), app_, bee_, hive_, now_));
  }

  /// Platform operation: ask the runtime to move a bee to another hive.
  /// Buffered like emissions; used by the optimizer application.
  void order_migration(BeeId bee, HiveId to) {
    migration_orders_.emplace_back(bee, to);
  }

  /// Explains a placement decision. Buffered like emissions; after commit
  /// the hive turns each record into a kDecision trace span and a flight-
  /// recorder line, so optimizer reasoning lands in the same streams as
  /// the migrations it causes.
  void note_decision(PlacementDecision decision) {
    decisions_.push_back(std::move(decision));
  }

  /// Reports one optimizer round's summary (bees scored, wall-clock
  /// latency). Buffered like emissions; the hive exports it as the
  /// beehive_placement_round_us / beehive_placement_rounds_total metrics.
  /// The wall-clock duration lives only in metrics — never in state or
  /// traces — so deterministic replays stay bit-identical.
  void note_round(PlacementRoundNote note) { round_note_ = std::move(note); }

  AppId app() const { return app_; }
  BeeId self() const { return bee_; }
  HiveId hive() const { return hive_; }
  TimePoint now() const { return now_; }

  /// Message type currently being handled (provenance for causation).
  MsgTypeId in_reply_to() const { return in_reply_to_; }

  // -- Platform-side accessors (Hive uses these after the handler ran) ----

  std::vector<MessageEnvelope>& emitted() { return emitted_; }
  std::vector<std::pair<BeeId, HiveId>>& migration_orders() {
    return migration_orders_;
  }
  std::vector<PlacementDecision>& decisions() { return decisions_; }
  std::optional<PlacementRoundNote>& round_note() { return round_note_; }

 private:
  Txn txn_;
  AppId app_;
  BeeId bee_;
  HiveId hive_;
  TimePoint now_;
  MsgTypeId in_reply_to_;
  std::vector<MessageEnvelope> emitted_;
  std::vector<std::pair<BeeId, HiveId>> migration_orders_;
  std::vector<PlacementDecision> decisions_;
  std::optional<PlacementRoundNote> round_note_;
};

}  // namespace beehive
