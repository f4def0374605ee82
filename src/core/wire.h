// Inter-hive wire frames.
//
// Everything hives exchange is one of these frames. They are deliberately
// explicit (a tagged union over a byte kind) rather than reusing the app
// message path: platform control traffic — merges, migrations, blocking —
// must work even while app routing for the affected bee is suspended.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "msg/message.h"
#include "state/cell.h"
#include "util/bytes.h"
#include "util/types.h"

namespace beehive {

enum class FrameKind : std::uint8_t {
  kAppMsg = 1,       ///< App message routed to a specific bee.
  kBatch = 2,        ///< Egress batch: u32 count, then `count` frames of any
                     ///< other kind, each varint-length-prefixed. One batch
                     ///< is one wire unit: it is metered, fault-injected and
                     ///< (under the reliable transport) acked/retransmitted
                     ///< as a whole. Batches never nest.
  kMergeCmd = 3,     ///< Tell a loser's hive to ship its state to a winner.
  kMigrateXfer = 4,  ///< Cell/state payload of a merge or migration.
  kMigrateAck = 5,   ///< Target hive accepted a migrated bee.
  kMigrationOrder = 6,  ///< Optimizer order: move bee B to hive H.
  kReplicaTxn = 7,      ///< Committed writes of one handler transaction,
                        ///< shipped to the bee's replica hive.
  kReplicaSnapshot = 8,  ///< Full state refresh of a bee's replica (sent
                         ///< after merges, migrations and adoptions).
  kReliable = 9,  ///< Reliable-transport envelope: src, seq, cumulative
                  ///< ack, then any of the frames above (core/transport.h).
  kAck = 10,      ///< Standalone cumulative ack (src, ack).
};

/// One kAppMsg frame: an app message routed to a specific bee.
struct AppMsg {
  BeeId target = kNoBee;
  AppId app = 0;
  /// Registry transfer count the target must have applied before this
  /// message may be processed (merge/migration consistency fence): the
  /// sender's resolve observed that many state transfers decided for the
  /// target, so processing earlier could read pre-merge state.
  std::uint64_t min_transfers = 0;
  std::string_view envelope;  ///< MessageEnvelope bytes (to_wire layout)
};

/// Appends a whole kAppMsg frame, kind byte included, to `w`.
inline void write_app_msg(ByteWriter& w, const AppMsg& m) {
  w.u8(static_cast<std::uint8_t>(FrameKind::kAppMsg));
  w.u64(m.target);
  w.u32(m.app);
  w.varint(m.min_transfers);
  w.str(m.envelope);
}

/// Reads a kAppMsg frame's body (the kind byte already consumed). The
/// envelope borrows the reader's bytes, so the frame must outlive it.
inline AppMsg read_app_msg(ByteReader& r) {
  AppMsg m;
  m.target = r.u64();
  m.app = r.u32();
  m.min_transfers = r.varint();
  const std::uint64_t len = r.varint();
  m.envelope = r.view(len);
  return m;
}

struct MergeCmdFrame {
  BeeId loser = kNoBee;
  AppId app = 0;
  BeeId winner = kNoBee;
  HiveId winner_hive = 0;
  /// Winner's transfers_expected after the merge decision: the loser's
  /// held-back messages are re-routed with this fence so they cannot beat
  /// the (possibly chasing) state transfers to the winner.
  std::uint64_t winner_expected = 0;

  void encode(ByteWriter& w) const {
    w.u64(loser);
    w.u32(app);
    w.u64(winner);
    w.u32(winner_hive);
    w.varint(winner_expected);
  }
  static MergeCmdFrame decode(ByteReader& r) {
    MergeCmdFrame f;
    f.loser = r.u64();
    f.app = r.u32();
    f.winner = r.u64();
    f.winner_hive = r.u32();
    f.winner_expected = r.varint();
    return f;
  }
};

struct MigrateXferFrame {
  BeeId bee = kNoBee;       ///< Migrating bee, or merge loser.
  AppId app = 0;
  bool is_merge = false;
  BeeId merge_target = kNoBee;  ///< Winner bee when is_merge.
  HiveId src_hive = 0;          ///< Sender (for the MigrateAck reply).
  /// Whole-bee migration: the bee's own fence counters, carried to its new
  /// home. Merge payloads: transfers_applied = the loser's applied count
  /// (already folded into the snapshot).
  std::uint64_t transfers_applied = 0;
  std::uint64_t transfers_required = 0;
  /// Merge payloads: the winner's transfers_expected at decision time.
  /// Applied on arrival, it raises the winner's fence so that transfers
  /// arriving out of decision order can never satisfy an earlier fence —
  /// a later-decided transfer always announces every earlier decision.
  std::uint64_t winner_expected = 0;
  /// Whole-bee migrations: the registry epoch minted when this migration
  /// started. The target commits conditionally on it, so a transfer from
  /// an aborted (timed-out) migration can never move the bee afterwards.
  std::uint64_t mig_epoch = 0;
  Bytes snapshot;  ///< StateStore::snapshot()

  void encode(ByteWriter& w) const {
    w.u64(bee);
    w.u32(app);
    w.boolean(is_merge);
    w.u64(merge_target);
    w.u32(src_hive);
    w.varint(transfers_applied);
    w.varint(transfers_required);
    w.varint(winner_expected);
    w.varint(mig_epoch);
    w.str(snapshot);
  }
  static MigrateXferFrame decode(ByteReader& r) {
    MigrateXferFrame f;
    f.bee = r.u64();
    f.app = r.u32();
    f.is_merge = r.boolean();
    f.merge_target = r.u64();
    f.src_hive = r.u32();
    f.transfers_applied = r.varint();
    f.transfers_required = r.varint();
    f.winner_expected = r.varint();
    f.mig_epoch = r.varint();
    f.snapshot = r.str();
    return f;
  }
};

struct MigrateAckFrame {
  BeeId bee = kNoBee;

  void encode(ByteWriter& w) const { w.u64(bee); }
  static MigrateAckFrame decode(ByteReader& r) {
    MigrateAckFrame f;
    f.bee = r.u64();
    return f;
  }
};

struct MigrationOrderFrame {
  BeeId bee = kNoBee;
  HiveId to_hive = 0;

  void encode(ByteWriter& w) const {
    w.u64(bee);
    w.u32(to_hive);
  }
  static MigrationOrderFrame decode(ByteReader& r) {
    MigrationOrderFrame f;
    f.bee = r.u64();
    f.to_hive = r.u32();
    return f;
  }
};

struct ReplicaTxnFrame {
  BeeId bee = kNoBee;
  AppId app = 0;

  struct Write {
    std::string dict;
    std::string key;
    bool erased = false;
    Bytes value;  ///< empty when erased
  };
  std::vector<Write> writes;

  void encode(ByteWriter& w) const {
    w.u64(bee);
    w.u32(app);
    w.varint(writes.size());
    for (const Write& wr : writes) {
      w.str(wr.dict);
      w.str(wr.key);
      w.boolean(wr.erased);
      w.str(wr.value);
    }
  }
  static ReplicaTxnFrame decode(ByteReader& r) {
    ReplicaTxnFrame f;
    f.bee = r.u64();
    f.app = r.u32();
    std::uint64_t n = r.varint();
    // A write takes at least 4 bytes: two string lengths, a flag and a
    // value length.
    f.writes.reserve(reserve_bound(n, r, 4));
    for (std::uint64_t i = 0; i < n; ++i) {
      Write wr;
      wr.dict = r.str();
      wr.key = r.str();
      wr.erased = r.boolean();
      wr.value = r.str();
      f.writes.push_back(std::move(wr));
    }
    return f;
  }
};

struct ReplicaSnapshotFrame {
  BeeId bee = kNoBee;
  AppId app = 0;
  Bytes snapshot;

  void encode(ByteWriter& w) const {
    w.u64(bee);
    w.u32(app);
    w.str(snapshot);
  }
  static ReplicaSnapshotFrame decode(ByteReader& r) {
    ReplicaSnapshotFrame f;
    f.bee = r.u64();
    f.app = r.u32();
    f.snapshot = r.str();
    return f;
  }
};

/// Serializes kind + body into one frame.
template <typename F>
Bytes encode_frame(FrameKind kind, const F& frame) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(kind));
  frame.encode(w);
  return std::move(w).take();
}

}  // namespace beehive
