// A hive: one controller of the distributed control plane (paper §3,
// "Hives and Cells" / "Life of a Message").
//
// The hive is the platform's work-horse: it receives messages (from IO
// channels, from local bees, or over the wire from other hives), asks each
// subscribed application's Map function which cells the message needs,
// resolves those cells to their owning bee through the registry, and either
// runs the handler locally or relays the message. It also executes the
// merge and migration protocols and collects per-bee instrumentation.
//
// Hive code is runtime-agnostic: all clocks, timers and frame delivery go
// through RuntimeEnv, so the same class runs under the deterministic
// simulator and the threaded cluster.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/registry.h"
#include "cluster/runtime_env.h"
#include "core/app.h"
#include "core/bee.h"
#include "core/transport.h"
#include "core/wire.h"
#include "instrument/health.h"
#include "instrument/histogram.h"
#include "instrument/profiler.h"
#include "instrument/registry.h"
#include "instrument/signals.h"
#include "instrument/trace.h"
#include "msg/message.h"
#include "placement/strategy.h"
#include "state/txn.h"
#include "util/types.h"

namespace beehive {

class FaultPlan;
class FlightRecorder;

struct HiveConfig {
  /// Period of the instrumentation report timer; 0 disables reporting.
  Duration metrics_period = kSecond;
  /// Stop firing timers after this time (sim runs bounded experiments).
  TimePoint timers_until = kTimeInfinity;
  /// Replicate every bee's committed state to a neighbour hive (paper §7
  /// future work: fault tolerance). Enables SimCluster::fail_hive recovery.
  bool replication = false;
  /// Cluster size; filled in by the cluster runtime at construction.
  /// Needed to pick replica hives.
  std::size_t n_hives = 1;
  /// Span recorder for this hive (owned by the cluster runtime); nullptr
  /// or disabled = tracing off, zero dispatch-path cost.
  TraceRecorder* tracer = nullptr;
  /// Reliable at-least-once frame transport (core/transport.h). Disabled
  /// by default: frames ship raw, with zero bookkeeping. Enable whenever
  /// the cluster's FaultPlan injects loss/duplication/reordering.
  TransportConfig transport;
  /// The cluster's fault plan (owned by the runtime; may be null). Hives
  /// only *read* it, to report partitions_active with their metrics.
  const FaultPlan* faults = nullptr;
  /// Cluster metrics registry (owned by the runtime; may be null). The
  /// hive exposes its counter and latency cells and pulls its signal
  /// gauges into it at construction; every scrape reads those cells live.
  MetricsRegistry* metrics = nullptr;
  /// Cluster flight recorder (owned by the runtime; may be null). The
  /// hive notes optimizer decisions and migration aborts into it.
  FlightRecorder* recorder = nullptr;
  /// Sampling cost profiler (instrument/profiler.h). Off by default: the
  /// dispatch path then pays one load and one branch per handler.
  ProfilerConfig profiler;
  /// Core pinning for the hive's loop thread (threaded runtime only).
  /// < 0 leaves placement to the OS scheduler. >= 0 pins hive i's loop to
  /// the ((pin_cpu + i) mod n)-th of the n CPUs the process was started on
  /// (its taskset or cgroup set), so loops stop migrating across cores
  /// under load (DESIGN.md §12).
  /// Honored on Linux via pthread_setaffinity_np; a no-op elsewhere.
  int pin_cpu = -1;
};

class Hive {
 public:
  /// The hive that injects mapped-timer ticks for the whole cluster.
  static constexpr HiveId kTimerMaster = 0;
  /// Migration ack timeout (doubles per retry) and the attempt cap after
  /// which a migration aborts, leaving the bee live at its origin.
  static constexpr Duration kMigrateTimeout = 10 * kMillisecond;
  static constexpr int kMigrateMaxAttempts = 3;

  Hive(HiveId id, const AppSet& apps, RegistryService& registry,
       RuntimeEnv& env, HiveConfig config = {});
  ~Hive();

  Hive(const Hive&) = delete;
  Hive& operator=(const Hive&) = delete;

  HiveId id() const { return id_; }

  /// Arms application timers and the metrics report timer. Call once,
  /// before the runtime starts delivering events.
  void start();

  /// Entry point for messages arriving over IO channels (drivers, tests,
  /// benches). Routed exactly like paper §3's "Life of a Message".
  void inject(MessageEnvelope env);

  /// Entry point for frames from other hives.
  void on_wire(std::string_view frame);

  /// Local equivalent of a MigrationOrder frame.
  void request_migration(BeeId bee, HiveId to);

  // -- Introspection (tests, benches, analytics) --------------------------

  Bee* find_bee(BeeId id);
  const Bee* find_bee(BeeId id) const;
  std::size_t bee_count() const { return bees_.size(); }
  std::vector<Bee*> local_bees();
  RegistryService::Client& registry_client() { return registry_client_; }
  const HiveConfig& config() const { return config_; }

  // -- Fault tolerance ------------------------------------------------------

  /// The hive holding replicas of `owner`'s bees (ring successor).
  HiveId replica_target_of(HiveId owner) const {
    return static_cast<HiveId>((owner + 1) % config_.n_hives);
  }

  /// Recovers a bee whose home hive failed, using this hive's replica of
  /// its state (empty state if no replica exists — counted as lossy).
  /// The caller must first re-point the bee here in the registry.
  /// Returns false when no replica was found.
  bool adopt_from_replica(BeeId bee, AppId app);

  /// Read-only replica access (tests, diagnostics).
  const StateStore* replica_store(BeeId bee) const;
  std::size_t replica_count() const { return replicas_.size(); }

  /// Routing/protocol counters. Each field is a registry Counter: the
  /// hive's loop thread is its one writer (Counter::bump), the scrape
  /// thread reads it live, and it converts to uint64_t implicitly.
  struct Counters {
    Counter injected;
    Counter routed_local;
    Counter routed_remote;
    Counter forwarded;
    Counter handler_runs;
    Counter handler_failures;
    Counter merges_started;
    Counter migrations_in;
    Counter migrations_out;
    Counter migration_retries;   ///< MigrateXfer re-sent on timeout
    Counter migration_aborts;    ///< gave up; bee stayed at origin
    Counter registry_failures;   ///< messages dropped: no resolve
    Counter shed_total;          ///< overload sheds: mailbox msgs + link frames
  };
  const Counters& counters() const { return counters_; }

  /// Reliable-transport totals (all zero when the transport is disabled).
  const TransportCounters& transport_counters() const {
    static const TransportCounters kNone{};
    return transport_ ? transport_->counters() : kNone;
  }

  // -- Latency (cumulative across every local handler run) ----------------
  // Snapshots of the hive's latency cells, the same cells /metrics reads.

  /// Emission -> handler-start (queueing + channel transit).
  LatencyHistogram queue_latency() const { return queue_latency_.snapshot(); }
  /// Handler duration (zero under the instantaneous simulator clock).
  LatencyHistogram handler_latency() const {
    return handler_latency_.snapshot();
  }
  /// Trace ingress -> terminal handler, for traces that ended here.
  LatencyHistogram e2e_latency() const { return e2e_latency_.snapshot(); }

  // -- Cost / pressure / health (DESIGN.md §9) ----------------------------

  /// Snapshot of this hive's health signals, as of the last metrics
  /// report. Safe to call from any thread (the HTTP export path): copies
  /// the signals report_metrics() last wrote. `suspected` is always
  /// false here — failure-detector suspicion is a cluster-level judgment
  /// folded in by the runtime's health() aggregation.
  HiveHealth health() const;

  // -- Overload control (DESIGN.md §10) ------------------------------------

  /// Cheap saturation check for admission control at the IO boundary,
  /// safe from any thread: true while outbound frames are stalled waiting
  /// for link credit, or while a bounded mailbox sits at its limit under
  /// kBlockSender. Producers (drivers, the overload demo) should stop
  /// injecting while this holds.
  bool overloaded() const {
    if (mailbox_overrun_.load(std::memory_order_relaxed)) return true;
    return transport_ != nullptr && transport_->stalled_now() > 0;
  }

  /// The reliable transport, if configured (tests, diagnostics).
  const ReliableTransport* transport() const { return transport_.get(); }

  /// Priority classification for the mailbox policies: platform control
  /// and introspection traffic ("platform.*", "stats.*" message types) is
  /// never shed. Cold path — only consulted once a bounded holdback is
  /// already at its limit.
  static bool is_priority_type(MsgTypeId type);

 private:
  // Routing (paper §3, "Life of a Message"). `mapped`, where present, is
  // the Map result already computed by the dispatch layer for this
  // message+app pair; it is borrowed down the synchronous delivery chain so
  // Map runs exactly once per message per hive. Callers that cannot supply
  // it (holdback drain, foreach timer ticks) pass null and bind()
  // recomputes.
  void route(const MessageEnvelope& env);
  void dispatch_mapped(App& app, const HandlerBinding& binding,
                       const MessageEnvelope& env);
  void dispatch_foreach_local(AppId app, const std::string& dict,
                              const MessageEnvelope& env);
  /// Finds the handler binding for a message on this app (resolving timer
  /// ticks to their timer binding). Returns {handler, policy}. When
  /// `mapped` is non-null the policy borrows it instead of re-running Map.
  struct Bound {
    const HandlerFn* handle = nullptr;
    AccessPolicy policy;
  };

  void deliver(BeeId bee, AppId app, HiveId hive, const MessageEnvelope& env,
               std::uint64_t min_transfers, const CellSet* mapped = nullptr);
  void deliver_local(Bee& bee, const MessageEnvelope& env,
                     std::uint64_t min_transfers = 0,
                     const CellSet* mapped = nullptr);

  /// Binds and runs the handler for one message on a local bee, inside a
  /// transaction; on commit, queues emissions and issues migration orders.
  void process(Bee& bee, const MessageEnvelope& env,
               const CellSet* mapped = nullptr);

  std::optional<Bound> bind(App& app, const MessageEnvelope& env,
                            const CellSet* mapped = nullptr) const;

  Bee& ensure_local_bee(BeeId id, AppId app);

  // -- End-of-turn flush ----------------------------------------------------
  // One +0 event per loop turn, armed by the turn's first emission or
  // outbound frame, routes the outbox in emission order, then ships the
  // egress batches (DESIGN.md §8). Outbound frames accumulate in a
  // per-destination buffer and leave as a single FrameKind::kBatch wire
  // unit. One batch pays the fault-plan decision, the channel-meter
  // update, the delivery closure and the target's queue handoff once for
  // every frame it carries. The reliable transport sits below the
  // batcher, so retransmission and dedup are also per-batch.

  /// Queues one already-serialized frame for `to` and arms the flush.
  void send_frame(HiveId to, Bytes frame);
  void append_egress(HiveId to, std::string_view frame);
  void schedule_flush();
  void flush();
  /// Serializes a kAppMsg frame for `env` straight into the egress buffer
  /// through the reusable scratch writers — no per-message allocation.
  void send_app_msg(HiveId to, BeeId bee, AppId app,
                    std::uint64_t min_transfers, const MessageEnvelope& env);

  // Tracing. `ensure_trace` mints a deterministic root id for messages
  // entering the platform untraced (IO ingress, timer ticks).
  void ensure_trace(MessageEnvelope& env);
  bool tracing() const {
    return config_.tracer != nullptr && config_.tracer->enabled();
  }
  void trace_span(SpanKind kind, const MessageEnvelope& env, BeeId bee,
                  std::uint64_t aux = 0, std::uint64_t aux2 = 0) {
    if (!tracing()) return;
    config_.tracer->record(TraceEvent{env_.now(), kind, env.causal_depth(),
                                      env.trace_id(), id_, bee,
                                      env.from_app(), env.type(), aux, aux2});
  }
  /// True when a terminal handler of this message should count toward the
  /// end-to-end latency histogram.
  static bool e2e_eligible(const MessageEnvelope& env);

  // Frame handlers. `dispatch_frame` demuxes a platform frame (unpacking
  // kBatch containers inline); on_wire routes through the reliable
  // transport first when one is configured. App messages are decoded
  // in-place from the frame bytes — the envelope payload is borrowed, not
  // copied (the reader's view outlives the synchronous delivery).
  void dispatch_frame(std::string_view frame);
  void handle_app_msg(ByteReader& r);
  void handle_merge_cmd(const MergeCmdFrame& frame);
  void handle_migrate_xfer(const MigrateXferFrame& frame);
  void handle_migrate_ack(const MigrateAckFrame& frame);
  void handle_replica_txn(const ReplicaTxnFrame& frame);
  void handle_replica_snapshot(const ReplicaSnapshotFrame& frame);

  // Migration retry machinery (core/migration.cpp). The source hive arms
  // an ack timeout per in-flight migration; on expiry it reconciles with
  // the registry, re-sends the transfer, or aborts and unfreezes the bee.
  void send_migrate_xfer(Bee& bee, HiveId to, std::uint64_t epoch);
  void arm_migration_timer(BeeId bee);
  void check_migration(BeeId bee, std::uint64_t attempt_epoch);
  void complete_migration(BeeId bee);
  void abort_migration(Bee& bee);

  // Replication (no-ops when config_.replication is off).
  bool replicating() const {
    return config_.replication && config_.n_hives >= 2;
  }
  void replicate_txn(const Bee& bee, const Txn& txn);
  void replicate_snapshot(const Bee& bee);

  // Merge orchestration: called by the hive that discovered the collocation
  // obligation (the resolver), for each loser reported by the registry.
  void start_merges(AppId app, const ResolveOutcome& outcome);

  void drain(Bee& bee);

  // Timers.
  void arm_app_timers();
  void arm_timer(App& app, const TimerBinding& timer);
  void fire_timer(App& app, const TimerBinding& timer);
  void arm_metrics_timer();
  void report_metrics();

  /// Exposes the hive's counter and latency cells and its signal
  /// pull-gauges in config_.metrics, once, at construction.
  void register_metrics();
  /// Records one handler run's queue and run latency into the hive's cells
  /// and the run latency into the bee's window (negative durations clamp
  /// to 0).
  void record_latency(Bee& bee, Duration queued, Duration ran);
  /// Drains ctx.note_decision() records into the trace stream and the
  /// flight recorder.
  void record_decisions(const MessageEnvelope& env,
                        std::vector<PlacementDecision>& decisions);

  HiveId id_;
  const AppSet& apps_;
  RegistryService& registry_;
  RegistryService::Client registry_client_;
  RuntimeEnv& env_;
  HiveConfig config_;
  std::unordered_map<BeeId, std::unique_ptr<Bee>> bees_;
  struct Replica {
    AppId app = 0;
    StateStore store;
  };
  std::unordered_map<BeeId, Replica> replicas_;
  /// In-flight outbound migrations by bee: registry epoch, retry budget,
  /// and a local attempt counter that stales superseded timeout events.
  struct MigrationRetry {
    HiveId to = 0;
    std::uint64_t mig_epoch = 0;   ///< registry epoch guarding the commit
    std::uint64_t attempt = 0;     ///< bumps per (re)send; stales old timers
    int attempts_left = 0;
    Duration timeout = 0;
  };
  std::unordered_map<BeeId, MigrationRetry> migrations_;
  std::unique_ptr<ReliableTransport> transport_;

  /// Per-destination egress accumulator: a kBatch header (count patched at
  /// flush) followed by varint-length-prefixed frames.
  struct Egress {
    ByteWriter buf;
    std::uint32_t count = 0;
  };
  std::vector<Egress> egress_;
  bool flush_scheduled_ = false;
  /// Emissions awaiting the flush, and the batch the flush is routing. The
  /// flush swaps them, so both keep their capacity.
  std::vector<MessageEnvelope> outbox_;
  std::vector<MessageEnvelope> routing_;
  /// Frames sitting in egress buffers right now, and the window's
  /// high-watermark of that count (pressure inputs; reset at report time).
  std::uint64_t egress_pending_ = 0;
  std::uint64_t egress_hwm_window_ = 0;

  // Reusable serialization scratch for the remote send path (frame, the
  // envelope inside it, the payload inside that). Cleared per use, capacity
  // retained — the steady-state remote path never allocates here.
  ByteWriter frame_scratch_;
  ByteWriter env_scratch_;
  ByteWriter payload_scratch_;
  /// Reusable undo/redo log storage for handler transactions. Guarded by
  /// `txn_scratch_busy_`: a reentrant process() (a handler that injects
  /// synchronously) falls back to a scratch of its own. Its redo records
  /// carry values only when the hive replicates.
  Txn::Scratch txn_scratch_;
  bool txn_scratch_busy_ = false;

  Counters counters_;
  CostProfiler profiler_;
  /// env_.queue_stats(id_).drained at the previous report (window deltas).
  std::uint64_t prev_drained_ = 0;
  /// The latest report's signals, for health() and the signal gauges on
  /// any thread (the HTTP export path). Written once per metrics report.
  mutable std::mutex signals_mutex_;
  HiveSignals signals_;
  /// Optimizer-round summary (ctx.note_round). Atomics: the collector bee
  /// writes on its dispatch thread, scrapes read from the metrics thread.
  /// Wall-clock only — never fed back into state.
  struct PlacementRoundStats {
    std::atomic<std::uint64_t> last_us{0};
    std::atomic<std::uint64_t> rounds{0};
    std::atomic<std::uint64_t> scored{0};
  };
  PlacementRoundStats placement_rounds_;
  /// Set when a bounded kBlockSender mailbox hits its limit; cleared at
  /// report time once every bounded holdback has drained below half its
  /// limit, and in drain() when a holdback empties. Hysteresis keeps the
  /// admission signal from flapping per message.
  std::atomic<bool> mailbox_overrun_{false};
  /// counters_.shed_total at the previous report (shed-rate window delta).
  std::uint64_t prev_shed_ = 0;
  TimePoint prev_report_at_ = 0;
  std::uint64_t next_trace_ = 0;
  /// Lifetime latency cells, written only by the loop thread
  /// (HistogramMetric::bump_at) and exposed live in /metrics.
  HistogramMetric queue_latency_;
  HistogramMetric handler_latency_;
  HistogramMetric e2e_latency_;
  /// This report window's e2e latency, shipped in LocalMetricsReport.
  LatencyHistogram e2e_window_;
};

}  // namespace beehive
