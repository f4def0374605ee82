// Bee merge and live-migration protocols (paper §3, "Migration of Bees").
//
// Merge (collocation obligation): when a resolve finds a message's mapped
// cells spread over several bees, the registry atomically re-points all
// cells at a winner, bumps the winner's transfers_expected fence (one per
// loser), and reports the losers. The resolving hive commands each loser's
// hive to ship its state (MergeCmd -> MigrateXfer), then routes the
// triggering message stamped with the post-decision fence value; the
// winner holds it until that many transfers have landed. The fence —
// rather than a separate announcement — makes the protocol immune to frame
// ordering between resolver, losers and winner.
//
// Migration (optimizer move): the source hive freezes the bee, ships a
// state snapshot, the target installs it and commits the new location to
// the registry under the epoch the source minted, acks, and the source
// drains the held-back messages to the new home. Stale frames that still
// arrive at the source are forwarded via the registry lookup in
// handle_app_msg.
#include <cassert>

#include "core/hive.h"
#include "instrument/flight_recorder.h"
#include "util/logging.h"

namespace beehive {

void Hive::start_merges(AppId app, const ResolveOutcome& outcome) {
  for (const ResolveOutcome::Loser& loser : outcome.losers) {
    MergeCmdFrame cmd{loser.bee, app, outcome.bee, outcome.hive,
                      outcome.transfers_expected};
    if (loser.hive == id_) {
      handle_merge_cmd(cmd);
    } else {
      send_frame(loser.hive, encode_frame(FrameKind::kMergeCmd, cmd));
    }
  }
}

void Hive::handle_merge_cmd(const MergeCmdFrame& frame) {
  Bytes snapshot;
  std::deque<MessageEnvelope> held;
  std::uint64_t loser_applied = 0;
  auto it = bees_.find(frame.loser);
  if (it != bees_.end() && it->second->migrating()) {
    // The loser's state snapshot is already in flight to its migration
    // target; that hive will discover the bee died and forward it to the
    // winner as the counted transfer (see handle_migrate_xfer). Nothing to
    // ship from here — just retire the local shell and re-route its queue.
    held = it->second->take_holdback();
    bees_.erase(it);
    for (MessageEnvelope& env : held) {
      deliver(frame.winner, frame.app, frame.winner_hive, env,
              frame.winner_expected);
    }
    return;
  }
  if (it != bees_.end()) {
    snapshot = it->second->store().snapshot();
    held = it->second->take_holdback();
    loser_applied = it->second->transfers_applied();
    bees_.erase(it);
  } else {
    // The loser was never instantiated here (its cells were registered but
    // no message reached it yet): ship an empty store. No transfer ever
    // landed here, so its applied count is zero.
    snapshot = StateStore{}.snapshot();
  }

  MigrateXferFrame xfer;
  xfer.bee = frame.loser;
  xfer.app = frame.app;
  xfer.is_merge = true;
  xfer.merge_target = frame.winner;
  xfer.src_hive = id_;
  // For merge payloads, transfers_applied carries the loser's applied
  // count: state from those transfers is already inside the snapshot.
  xfer.transfers_applied = loser_applied;
  xfer.winner_expected = frame.winner_expected;
  xfer.snapshot = std::move(snapshot);
  if (frame.winner_hive == id_) {
    handle_migrate_xfer(xfer);
  } else {
    send_frame(frame.winner_hive,
               encode_frame(FrameKind::kMigrateXfer, xfer));
  }

  // Re-route the loser's queued messages to the winner, fenced behind
  // every transfer of the merge decision (including this snapshot), so
  // they cannot be processed against partially-arrived state.
  for (MessageEnvelope& env : held) {
    deliver(frame.winner, frame.app, frame.winner_hive, env,
            frame.winner_expected);
  }
}

void Hive::handle_migrate_xfer(const MigrateXferFrame& frame) {
  if (frame.is_merge) {
    // The winner may have lost a superseding merge (or migrated) while
    // this transfer was in flight: chase the live successor.
    BeeId target = registry_.live_successor(frame.merge_target);
    if (target == kNoBee) {
      BH_ERROR << "hive " << id_ << ": merge transfer for vanished bee "
               << to_string_bee(frame.merge_target) << " dropped";
      return;
    }
    auto hive = registry_client_.hive_of(target, env_.now());
    if (!hive.has_value()) return;
    if (*hive != id_) {
      MigrateXferFrame fwd = frame;
      fwd.merge_target = target;
      fwd.src_hive = id_;
      if (target != frame.merge_target) {
        fwd.winner_expected = registry_.expected_transfers(target);
      }
      send_frame(*hive, encode_frame(FrameKind::kMigrateXfer, fwd));
      return;
    }
    Bee& winner = ensure_local_bee(target, frame.app);
    if (target != frame.merge_target) {
      // Re-targeted at a successor: re-fence at its current ledger.
      winner.note_required_transfers(registry_.expected_transfers(target));
    }
    if (winner.migrating()) {
      // The winner's own snapshot is already in flight to its migration
      // target; merging here would be lost when the bee retires on ack.
      // Chase the bee: the transfer arrives after the migration payload
      // (FIFO per hive pair), so the target hive merges it post-move.
      MigrateXferFrame fwd = frame;
      fwd.merge_target = target;
      fwd.src_hive = id_;
      send_frame(winner.migration_target(),
                 encode_frame(FrameKind::kMigrateXfer, fwd));
      return;
    }
    winner.store().merge_from(StateStore::from_snapshot(frame.snapshot));
    replicate_snapshot(winner);
    // Raise the fence first: a transfer decided after others announces
    // them, so out-of-order arrivals cannot unblock the winner early.
    winner.note_required_transfers(frame.winner_expected);
    winner.note_transfers_applied(1 + frame.transfers_applied);
    if (!winner.blocked()) drain(winner);
    return;
  }

  // Whole-bee migration: the bee keeps its identity, only its home moves —
  // unless it lost a merge while its snapshot was in flight, in which case
  // the state belongs to the merge winner now.
  BeeId successor = registry_.live_successor(frame.bee);
  if (successor != frame.bee) {
    // Zombie guard: if the origin aborted this migration before the merge,
    // the bee kept running there and this snapshot is stale — forwarding
    // it would graft outdated state onto the merge winner. Only a current
    // epoch proves the bee really was frozen when it merged away.
    const std::optional<BeeRecord> rec = registry_.find(frame.bee);
    if (!rec.has_value() || rec->mig_epoch != frame.mig_epoch) {
      BH_WARN << "hive " << id_ << ": stale migration transfer for "
              << "merged-away bee " << to_string_bee(frame.bee)
              << " dropped";
      return;
    }
    if (successor != kNoBee) {
      auto hive = registry_client_.hive_of(successor, env_.now());
      if (hive.has_value()) {
        // This snapshot is the loser's counted transfer (its hive shipped
        // nothing for a migrating loser); its applied count rides along.
        MigrateXferFrame fwd;
        fwd.bee = frame.bee;
        fwd.app = frame.app;
        fwd.is_merge = true;
        fwd.merge_target = successor;
        fwd.src_hive = id_;
        fwd.transfers_applied = frame.transfers_applied;
        fwd.winner_expected = registry_.expected_transfers(successor);
        fwd.snapshot = frame.snapshot;
        if (*hive == id_) {
          handle_migrate_xfer(fwd);
        } else {
          send_frame(*hive, encode_frame(FrameKind::kMigrateXfer, fwd));
        }
      }
    }
    MigrateAckFrame ack{frame.bee};
    send_frame(frame.src_hive, encode_frame(FrameKind::kMigrateAck, ack));
    return;
  }

  // Commit the move conditionally on the migration epoch: a transfer whose
  // migration the origin has since aborted must not re-home the bee
  // (split-brain guard). Duplicates of a committed transfer re-commit
  // idempotently and re-ack — the first ack may have been lost.
  if (!registry_.commit_migration(frame.bee, id_, frame.mig_epoch, id_,
                                  env_.now())) {
    BH_WARN << "hive " << id_ << ": stale migration transfer for bee "
            << to_string_bee(frame.bee) << " (epoch " << frame.mig_epoch
            << ") dropped";
    return;
  }
  Bee& bee = ensure_local_bee(frame.bee, frame.app);
  bee.store().merge_from(StateStore::from_snapshot(frame.snapshot));
  bee.restore_transfer_counters(frame.transfers_applied,
                                frame.transfers_required);
  counters_.migrations_in.bump();
  if (config_.recorder != nullptr) {
    config_.recorder->note(id_, "migrate in bee=" + to_string_bee(frame.bee) +
                                    " from=" +
                                    std::to_string(frame.src_hive) +
                                    " snapshot_bytes=" +
                                    std::to_string(frame.snapshot.size()));
  }
  if (tracing()) {
    config_.tracer->record(TraceEvent{env_.now(), SpanKind::kMigrateIn, 0, 0,
                                      id_, frame.bee, frame.app, 0,
                                      frame.snapshot.size(), frame.src_hive});
  }
  replicate_snapshot(bee);
  MigrateAckFrame ack{frame.bee};
  send_frame(frame.src_hive, encode_frame(FrameKind::kMigrateAck, ack));
}

void Hive::handle_migrate_ack(const MigrateAckFrame& frame) {
  complete_migration(frame.bee);
}

/// Retires a migrated-out bee: drops the local shell and re-routes its
/// held-back messages to the new home. Safe to call more than once (late
/// duplicate acks, ack racing the retry timer's own registry probe).
void Hive::complete_migration(BeeId bee_id) {
  migrations_.erase(bee_id);
  auto it = bees_.find(bee_id);
  if (it == bees_.end()) return;
  Bee& bee = *it->second;
  if (!bee.migrating()) return;  // aborted before the (late) ack landed
  auto held = bee.take_holdback();
  AppId app = bee.app();
  std::uint64_t required = bee.transfers_required();
  counters_.migrations_out.bump();
  if (config_.recorder != nullptr) {
    config_.recorder->note(id_, "migrate out bee=" + to_string_bee(bee_id) +
                                    " to=" +
                                    std::to_string(bee.migration_target()) +
                                    " held_msgs=" +
                                    std::to_string(held.size()));
  }
  if (tracing()) {
    config_.tracer->record(TraceEvent{env_.now(), SpanKind::kMigrateOut, 0, 0,
                                      id_, bee_id, app, 0, held.size(),
                                      bee.migration_target()});
  }
  bees_.erase(it);

  auto hive = registry_client_.hive_of(bee_id, env_.now());
  if (!hive.has_value()) {
    BH_ERROR << "hive " << id_ << ": migrated bee "
             << to_string_bee(bee_id) << " vanished from registry";
    return;
  }
  for (MessageEnvelope& env : held) {
    deliver(bee_id, app, *hive, env, required);
  }
}

void Hive::request_migration(BeeId bee_id, HiveId to) {
  Bee* bee = find_bee(bee_id);
  if (bee == nullptr) {
    // Not ours: forward the order to the bee's current hive.
    auto hive = registry_client_.hive_of(bee_id, env_.now());
    if (hive.has_value() && *hive != id_) {
      MigrationOrderFrame order{bee_id, to};
      send_frame(*hive, encode_frame(FrameKind::kMigrationOrder, order));
    }
    return;
  }
  if (to == id_) return;
  if (bee->migrating() || bee->blocked()) return;  // busy; retry next round.
  if (const App* app = apps_.find(bee->app()); app != nullptr &&
                                               app->pinned()) {
    return;  // pinned bees (drivers) are anchored to their IO channel.
  }

  const std::uint64_t epoch =
      registry_.begin_migration(bee_id, id_, env_.now());
  if (epoch == 0) return;  // registry does not know a live bee by this id

  bee->begin_migration(to);  // freezes the bee (blocked() is now true)
  if (tracing()) {
    config_.tracer->record(TraceEvent{env_.now(), SpanKind::kMigrateStart, 0,
                                      0, id_, bee_id, bee->app(), 0, to});
  }
  migrations_[bee_id] = MigrationRetry{to, epoch, /*attempt=*/0,
                                       kMigrateMaxAttempts, kMigrateTimeout};
  send_migrate_xfer(*bee, to, epoch);
  arm_migration_timer(bee_id);
}

void Hive::send_migrate_xfer(Bee& bee, HiveId to, std::uint64_t epoch) {
  MigrateXferFrame xfer;
  xfer.bee = bee.id();
  xfer.app = bee.app();
  xfer.is_merge = false;
  xfer.src_hive = id_;
  xfer.mig_epoch = epoch;
  xfer.transfers_applied = bee.transfers_applied();
  xfer.transfers_required = bee.transfers_required();
  xfer.snapshot = bee.store().snapshot();
  send_frame(to, encode_frame(FrameKind::kMigrateXfer, xfer));
}

void Hive::arm_migration_timer(BeeId bee) {
  auto it = migrations_.find(bee);
  if (it == migrations_.end() || it->second.timeout <= 0) return;
  const std::uint64_t attempt = it->second.attempt;
  env_.schedule_after(id_, it->second.timeout, [this, bee, attempt]() {
    check_migration(bee, attempt);
  });
}

/// Ack-timeout handler for one in-flight outbound migration. Reconciles
/// with the registry (the ack, not the move, may be what got lost), then
/// either re-sends the transfer or — once the attempt budget is spent —
/// cancels the migration and unfreezes the bee at its origin.
void Hive::check_migration(BeeId bee_id, std::uint64_t attempt_epoch) {
  auto it = migrations_.find(bee_id);
  if (it == migrations_.end()) return;           // acked or cleaned up
  if (it->second.attempt != attempt_epoch) return;  // superseded timer
  Bee* bee = find_bee(bee_id);
  if (bee == nullptr || !bee->migrating()) {
    // The bee merged away (or was otherwise retired) while frozen; the
    // transfer's fate is the merge protocol's problem now.
    migrations_.erase(it);
    return;
  }
  // Authoritative probe: did the target commit but lose the ack?
  if (auto hive = registry_.hive_of(bee_id); hive.has_value() &&
                                             *hive != id_) {
    complete_migration(bee_id);
    return;
  }
  MigrationRetry& mr = it->second;
  if (mr.attempts_left <= 1) {
    if (!registry_.cancel_migration(bee_id, id_, id_, env_.now())) {
      // A commit won the race against our cancel: the move happened.
      complete_migration(bee_id);
      return;
    }
    migrations_.erase(it);
    abort_migration(*bee);
    return;
  }
  --mr.attempts_left;
  mr.timeout *= 2;  // exponential backoff on the ack timeout
  ++mr.attempt;
  counters_.migration_retries.bump();
  if (config_.recorder != nullptr) {
    config_.recorder->note(id_, "migrate retry bee=" + to_string_bee(bee_id) +
                                    " to=" + std::to_string(mr.to) +
                                    " attempts_left=" +
                                    std::to_string(mr.attempts_left));
  }
  send_migrate_xfer(*bee, mr.to, mr.mig_epoch);
  arm_migration_timer(bee_id);
}

/// Gives up on an outbound migration: the epoch is already cancelled in
/// the registry, so in-flight transfers cannot commit. The bee thaws and
/// keeps living at its origin; its held-back messages drain locally.
void Hive::abort_migration(Bee& bee) {
  counters_.migration_aborts.bump();
  if (config_.recorder != nullptr) {
    config_.recorder->note(
        id_, "migrate abort bee=" + to_string_bee(bee.id()) + " to=" +
                 std::to_string(bee.migration_target()) + "; bee stays local");
  }
  BH_WARN << "hive " << id_ << ": migration of bee "
          << to_string_bee(bee.id()) << " to hive "
          << bee.migration_target() << " aborted; bee stays local";
  bee.abort_migration();
  if (!bee.blocked()) drain(bee);
}

void Hive::drain(Bee& bee) {
  auto held = bee.take_holdback();
  for (MessageEnvelope& env : held) {
    if (bee.blocked()) {
      bee.hold(std::move(env));  // re-blocked mid-drain (nested merge)
      continue;
    }
    process(bee, env);
  }
  // A fully drained mailbox lifts the kBlockSender saturation flag early
  // (report_metrics() would also clear it at the next window).
  if (bee.holdback_size() == 0) {
    mailbox_overrun_.store(false, std::memory_order_relaxed);
  }
}

}  // namespace beehive
