// State replication for fault tolerance (paper §7 lists fault-tolerance as
// the framework's next foundation; this is that extension).
//
// When enabled, every committed handler transaction is shipped — write by
// write — to the bee's replica hive (the ring successor of its home), and
// bulk state changes (merges, migrations, adoptions) refresh the replica
// with a full snapshot. Replication traffic rides the metered control
// channel, so its overhead is measurable in the same units as Figure 4.
//
// On a hive failure, SimCluster::fail_hive + recover_hive re-point every
// bee of the failed hive at its replica hive, which adopts the bee from
// the replicated state and establishes a new replica downstream.
#include "core/hive.h"
#include "instrument/flight_recorder.h"
#include "util/logging.h"

namespace beehive {

void Hive::replicate_txn(const Bee& bee, const Txn& txn) {
  if (!replicating()) return;
  if (txn.writes().empty()) return;
  HiveId target = replica_target_of(id_);
  if (target == id_) return;

  ReplicaTxnFrame frame;
  frame.bee = bee.id();
  frame.app = bee.app();
  frame.writes.reserve(txn.writes().size());
  for (const Txn::WriteRecord& w : txn.writes()) {
    frame.writes.push_back({w.dict, w.key, w.erased, w.value});
  }
  send_frame(target, encode_frame(FrameKind::kReplicaTxn, frame));
}

void Hive::replicate_snapshot(const Bee& bee) {
  if (!replicating()) return;
  HiveId target = replica_target_of(id_);
  if (target == id_) return;
  ReplicaSnapshotFrame frame;
  frame.bee = bee.id();
  frame.app = bee.app();
  frame.snapshot = bee.store().snapshot();
  send_frame(target, encode_frame(FrameKind::kReplicaSnapshot, frame));
}

void Hive::handle_replica_txn(const ReplicaTxnFrame& frame) {
  Replica& replica = replicas_[frame.bee];
  replica.app = frame.app;
  for (const ReplicaTxnFrame::Write& w : frame.writes) {
    if (w.erased) {
      replica.store.dict(w.dict).erase(w.key);
    } else {
      replica.store.dict(w.dict).put(w.key, w.value);
    }
  }
}

void Hive::handle_replica_snapshot(const ReplicaSnapshotFrame& frame) {
  Replica& replica = replicas_[frame.bee];
  replica.app = frame.app;
  replica.store = StateStore::from_snapshot(frame.snapshot);
}

bool Hive::adopt_from_replica(BeeId bee_id, AppId app) {
  Bee& bee = ensure_local_bee(bee_id, app);
  auto it = replicas_.find(bee_id);
  bool found = it != replicas_.end();
  if (found) {
    bee.store().merge_from(std::move(it->second.store));
    replicas_.erase(it);
  } else {
    BH_WARN << "hive " << id_ << ": adopting " << to_string_bee(bee_id)
            << " with no replica — state lost";
  }
  if (config_.recorder != nullptr) {
    config_.recorder->note(id_, "adopted bee=" + to_string_bee(bee_id) +
                                    (found ? " from replica"
                                           : " WITHOUT replica (state lost)"));
  }
  // Establish the bee's new replica downstream of its new home.
  replicate_snapshot(bee);
  return found;
}

const StateStore* Hive::replica_store(BeeId bee) const {
  auto it = replicas_.find(bee);
  return it == replicas_.end() ? nullptr : &it->second.store;
}

}  // namespace beehive
