// A bee: the exclusive thread of execution for a set of collocated cells
// (paper §3, "Bees").
//
// The Bee object itself is passive data — its mailbox, state store and
// metrics. Execution discipline (exactly one handler at a time per bee) is
// provided by the owning hive: the simulated runtime is sequential per
// hive, and the threaded runtime runs each hive's dispatch loop on a single
// thread, so a bee can never process two messages concurrently.
#pragma once

#include <deque>
#include <memory>
#include <utility>

#include "core/overload.h"
#include "instrument/metrics.h"
#include "msg/message.h"
#include "state/cell.h"
#include "state/store.h"
#include "util/types.h"

namespace beehive {

class Bee {
 public:
  Bee(BeeId id, AppId app) : id_(id), app_(app) {}

  Bee(const Bee&) = delete;
  Bee& operator=(const Bee&) = delete;

  BeeId id() const { return id_; }
  AppId app() const { return app_; }

  StateStore& store() { return store_; }
  const StateStore& store() const { return store_; }

  // -- Transfer fence & holdback ---------------------------------------------
  // A bee is blocked while it waits for state to arrive: either its own
  // migration is in flight, or merge transfers decided in the registry have
  // not landed yet. Every routed message carries the registry's
  // transfers_expected count observed at resolve time; the bee holds
  // messages until its applied-transfer counter catches up, then drains the
  // holdback in arrival order — preserving per-bee processing order across
  // merges and migrations (invariant #4 in DESIGN.md).

  bool blocked() const {
    return migrating_ || transfers_applied_ < transfers_required_;
  }

  /// Raises the fence: this bee must not process further messages until it
  /// has applied at least `min_transfers` state transfers.
  void note_required_transfers(std::uint64_t min_transfers) {
    if (min_transfers > transfers_required_) {
      transfers_required_ = min_transfers;
    }
  }

  /// Records applied state transfers. A merge payload counts as one plus
  /// the loser's own applied count (already folded into its snapshot).
  void note_transfers_applied(std::uint64_t n = 1) {
    transfers_applied_ += n;
  }

  std::uint64_t transfers_applied() const { return transfers_applied_; }
  std::uint64_t transfers_required() const { return transfers_required_; }

  /// Restores fence counters after a whole-bee migration.
  void restore_transfer_counters(std::uint64_t applied,
                                 std::uint64_t required) {
    transfers_applied_ = applied;
    transfers_required_ = required;
  }

  void hold(MessageEnvelope env) { holdback_.push_back(std::move(env)); }
  std::deque<MessageEnvelope> take_holdback() {
    return std::exchange(holdback_, {});
  }
  std::size_t holdback_size() const { return holdback_.size(); }

  // -- Bounded mailbox (DESIGN.md §10) --------------------------------------
  // The holdback is the bee's mailbox; the owning app's OverloadConfig
  // bounds it. The bound is only consulted on the hold path (a fenced or
  // backlogged bee), never on the dispatch fast path.

  /// The owning app's mailbox bound; null = unbounded (set by the hive at
  /// bee creation — the config lives on the shared, immutable App).
  const OverloadConfig* overload() const { return overload_; }
  void set_overload(const OverloadConfig* config) { overload_ = config; }

  /// Holds `env` subject to the mailbox bound `oc` (which the caller has
  /// already found exceeded). Returns false when `env` itself was shed —
  /// the only message a shed ever drops, so the caller accounts the shed
  /// against `env`. `is_priority(MsgTypeId)` classifies messages that must
  /// never be shed.
  template <typename PriorityFn>
  bool hold_bounded(MessageEnvelope env, const OverloadConfig& oc,
                    PriorityFn&& is_priority) {
    // Priority traffic always lands, whatever the policy. kBlockSender
    // never sheds; the hive raises its saturation flag instead and
    // upstream admission control stops the producer.
    if (is_priority(env.type()) ||
        oc.policy == OverloadPolicy::kBlockSender) {
      hold(std::move(env));
      return true;
    }
    return false;  // kShedNewest: tail drop
  }

  bool migrating() const { return migrating_; }
  HiveId migration_target() const { return migration_target_; }
  void begin_migration(HiveId target) {
    migrating_ = true;
    migration_target_ = target;
  }
  /// Unfreezes a bee whose outbound migration timed out: it stays live at
  /// its origin (the caller drains the holdback afterwards).
  void abort_migration() {
    migrating_ = false;
    migration_target_ = 0;
  }

  // -- Instrumentation ------------------------------------------------------
  // `window` is the delta since the last metrics report (reset on report).

  BeeMetrics& window() { return window_; }
  const BeeMetrics& window() const { return window_; }

  /// `count_provenance` is false for platform-generated inputs (timer
  /// ticks): they count as load but not as inter-bee traffic, so they never
  /// skew the optimizer's "where do my messages come from" statistics.
  ///
  /// Steady-state traffic is overwhelmingly "same source, same type, again",
  /// so the per-type and per-source counter slots are memoized: a repeat of
  /// the previous (from, hive, type) combination bumps the cached counters
  /// directly instead of re-running two associative lookups per message.
  /// Map element addresses are stable under insertion, so the cached
  /// pointers stay valid until reset_window() replaces the maps (which
  /// invalidates the memo).
  void note_receive(BeeId from, HiveId from_hive, std::size_t bytes,
                    bool count_provenance = true, MsgTypeId type = 0) {
    window_.msgs_in += 1;
    window_.bytes_in += bytes;
    if (memo_.valid && memo_.from == from && memo_.from_hive == from_hive &&
        memo_.type == type && memo_.provenance == count_provenance) {
      if (memo_.type_count != nullptr) ++*memo_.type_count;
      if (memo_.source_count != nullptr) ++*memo_.source_count;
      return;
    }
    memo_.from = from;
    memo_.from_hive = from_hive;
    memo_.type = type;
    memo_.provenance = count_provenance;
    memo_.type_count = type != 0 ? &++window_.inbound_types[type] : nullptr;
    memo_.source_count = count_provenance
                             ? &++window_.inbound_hive[{from, from_hive}]
                             : nullptr;
    memo_.valid = true;
  }

  void note_emit(MsgTypeId in_reply_to, MsgTypeId emitted, std::size_t bytes) {
    window_.on_emit(in_reply_to, emitted, bytes);
  }

  /// Records one handler run's latency pair — `queued` = emission to
  /// handler-start, `ran` = handler-start to handler-end — with bucket
  /// indices precomputed by the hive, which records the same two values
  /// into its own totals: one index computation per value for both.
  void note_latency_at(std::uint32_t qidx, std::uint64_t queued,
                       std::uint32_t ridx, std::uint64_t ran) {
    window_.queue_latency.record_at(qidx, queued);
    window_.handler_latency.record_at(ridx, ran);
  }

  /// Charges one sampled handler run's thread-CPU nanoseconds (profiler;
  /// see instrument/profiler.h for the sampling discipline).
  void note_cost(std::uint64_t sampled_ns) {
    window_.cost_ns_sampled += sampled_ns;
    window_.cost_samples += 1;
  }

  /// Counts one transaction's committed write records.
  void note_txn_ops(std::uint64_t n) { window_.txn_ops += n; }

  void reset_window() {
    window_ = BeeMetrics{};
    memo_.valid = false;  // the cached window_ slots were just destroyed
  }

 private:
  /// Cached counter slots for the last (from, hive, type) combination seen
  /// by note_receive. See that method for the validity argument.
  struct ReceiveMemo {
    BeeId from = kNoBee;
    HiveId from_hive = 0;
    MsgTypeId type = 0;
    bool provenance = false;
    bool valid = false;
    std::uint64_t* type_count = nullptr;    ///< window_.inbound_types slot
    std::uint64_t* source_count = nullptr;  ///< window_.inbound_hive slot
  };
  ReceiveMemo memo_;

  BeeId id_;
  AppId app_;
  const OverloadConfig* overload_ = nullptr;
  StateStore store_;
  std::uint64_t transfers_applied_ = 0;
  std::uint64_t transfers_required_ = 0;
  bool migrating_ = false;
  HiveId migration_target_ = 0;
  std::deque<MessageEnvelope> holdback_;
  BeeMetrics window_;
};

}  // namespace beehive
