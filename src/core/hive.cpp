#include "core/hive.h"

#include <cassert>

#include "cluster/faults.h"
#include "core/context.h"
#include "instrument/flight_recorder.h"
#include "util/logging.h"

namespace beehive {

Hive::Hive(HiveId id, const AppSet& apps, RegistryService& registry,
           RuntimeEnv& env, HiveConfig config)
    : id_(id),
      apps_(apps),
      registry_(registry),
      registry_client_(registry, id),
      env_(env),
      config_(config),
      profiler_(config.profiler) {
  if (config_.transport.enabled) {
    transport_ =
        std::make_unique<ReliableTransport>(id_, env_, config_.transport);
    // Link-level sheds and mailbox sheds share one metric cell.
    transport_->set_shed_counter(&counters_.shed_total);
    // Link-level spans (stall/retransmit/shed) land in the hive's recorder.
    transport_->set_tracer(config_.tracer);
  }
  register_metrics();
}

bool Hive::is_priority_type(MsgTypeId type) {
  const std::string_view name = MsgTypeRegistry::instance().name_of(type);
  return name.substr(0, 9) == "platform." || name.substr(0, 6) == "stats.";
}

void Hive::register_metrics() {
  MetricsRegistry* reg = config_.metrics;
  if (reg == nullptr) return;
  const MetricLabels labels{{"hive", std::to_string(id_)}};

  // Routing/protocol counters: the live atomic cells themselves are
  // exposed, so scrapes see up-to-the-message values with zero extra work
  // on the dispatch path.
  reg->expose_counter("beehive_messages_injected_total", labels,
                      &counters_.injected,
                      "Messages entering the platform on IO channels");
  reg->expose_counter("beehive_messages_routed_local_total", labels,
                      &counters_.routed_local,
                      "Messages delivered to a bee on the resolving hive");
  reg->expose_counter("beehive_messages_routed_remote_total", labels,
                      &counters_.routed_remote,
                      "Messages relayed to another hive after resolve");
  reg->expose_counter("beehive_messages_forwarded_total", labels,
                      &counters_.forwarded,
                      "Messages re-forwarded because the sender cache was stale");
  reg->expose_counter("beehive_handler_runs_total", labels,
                      &counters_.handler_runs, "Handler invocations");
  reg->expose_counter("beehive_handler_failures_total", labels,
                      &counters_.handler_failures,
                      "Handler invocations rolled back on exception");
  reg->expose_counter("beehive_merges_started_total", labels,
                      &counters_.merges_started,
                      "Merge protocols initiated by this hive");
  reg->expose_counter("beehive_migrations_in_total", labels,
                      &counters_.migrations_in,
                      "Bees installed here by migration");
  reg->expose_counter("beehive_migrations_out_total", labels,
                      &counters_.migrations_out,
                      "Bees migrated away from this hive");
  reg->expose_counter("beehive_migration_retries_total", labels,
                      &counters_.migration_retries,
                      "Migration transfers re-sent on ack timeout");
  reg->expose_counter("beehive_migration_aborts_total", labels,
                      &counters_.migration_aborts,
                      "Migrations abandoned after the retry cap");
  reg->expose_counter("beehive_registry_failures_total", labels,
                      &counters_.registry_failures,
                      "Messages dropped because the registry was unreachable");
  reg->expose_counter("beehive_shed_total", labels, &counters_.shed_total,
                      "Messages and frames dropped by overload policies "
                      "(bounded mailboxes + link credit gate)");

  // Window-published cells (see publish_window).
  published_.msgs_window =
      &reg->ring("beehive_handler_runs_window", labels);
  published_.e2e_p99_window =
      &reg->ring("beehive_e2e_p99_window_us", labels);
  published_.bees =
      &reg->gauge("beehive_bees", labels, "Live bees on this hive");
  published_.cells =
      &reg->gauge("beehive_cells", labels, "Cells owned by local bees");
  published_.queue_depth =
      &reg->gauge("beehive_queue_depth", labels,
                  "Messages held behind transfer fences at report time");
  published_.e2e = &reg->histogram(
      "beehive_e2e_latency_us", labels,
      "Trace ingress to terminal handler latency (microseconds)");
  published_.queue = &reg->histogram(
      "beehive_queue_latency_us", labels,
      "Emission to handler-start latency (microseconds)");
  published_.handler = &reg->histogram(
      "beehive_handler_latency_us", labels,
      "Handler duration (microseconds)");
  published_.tx_data = &reg->gauge(
      "beehive_transport_data_frames", labels,
      "Reliable transport: data frames first-sent (lifetime)");
  published_.tx_retransmits = &reg->gauge(
      "beehive_transport_retransmits", labels,
      "Reliable transport: frames re-sent on ack timeout (lifetime)");
  published_.tx_acks =
      &reg->gauge("beehive_transport_acks_sent", labels,
                  "Reliable transport: standalone ack frames (lifetime)");
  published_.tx_dups = &reg->gauge(
      "beehive_transport_dup_frames_dropped", labels,
      "Reliable transport: receive-side dedup discards (lifetime)");
  published_.tx_reorder = &reg->gauge(
      "beehive_transport_reorder_buffered", labels,
      "Reliable transport: frames held for in-order delivery (lifetime)");
  published_.tx_abandoned = &reg->gauge(
      "beehive_transport_frames_abandoned", labels,
      "Reliable transport: frames dropped after the retransmit cap");
  published_.partitions =
      &reg->gauge("beehive_partitions_active", labels,
                  "Partitions currently injected by the fault plan");

  // Queue-pressure and cost-profiler cells (DESIGN.md §9).
  published_.pressure = &reg->gauge(
      "beehive_pressure", labels,
      "Queue-pressure score in [0,1): backlog / (backlog + drained + 1)");
  published_.runq_depth =
      &reg->gauge("beehive_runq_depth", labels,
                  "Run-queue tasks pending for this hive at report time");
  published_.runq_hwm =
      &reg->gauge("beehive_runq_hwm", labels,
                  "High-watermark of run-queue depth over the last metrics "
                  "window (resets each report)");
  published_.drained_window =
      &reg->ring("beehive_runq_drained_window", labels);
  published_.egress_hwm = &reg->gauge(
      "beehive_egress_pending_hwm", labels,
      "High-watermark of frames pending in egress buffers this window");
  published_.cost_window = &reg->ring("beehive_cost_us_window", labels);

  // Overload control (DESIGN.md §10).
  published_.link_credits = &reg->gauge(
      "beehive_link_credits", labels,
      "Smallest remaining credit across outbound links (-1 = unlimited)");
  published_.link_stalled = &reg->gauge(
      "beehive_link_stalled_frames", labels,
      "Outbound frames waiting for link credit at report time");
  published_.degraded = &reg->gauge(
      "beehive_degraded", labels,
      "1 while the hive advertises its degraded credit window");

  // Optimizer-round latency by mode (DESIGN.md §13): non-zero only on the
  // hive hosting the collector bee. The full/incremental split is what the
  // incremental optimizer exists to improve, so it scrapes per mode.
  const auto round_gauges = [&](const char* mode, PlacementRoundStats* st) {
    MetricLabels mode_labels = labels;
    mode_labels.emplace_back("mode", mode);
    reg->gauge_fn(
        "beehive_placement_round_us", mode_labels,
        [st]() {
          return static_cast<double>(
              st->last_us.load(std::memory_order_relaxed));
        },
        "Wall-clock microseconds of the latest optimizer round (view "
        "assembly + scoring) in this mode");
    reg->gauge_fn(
        "beehive_placement_rounds_total", mode_labels,
        [st]() {
          return static_cast<double>(
              st->rounds.load(std::memory_order_relaxed));
        },
        "Optimizer rounds completed in this mode", /*counter_semantics=*/true);
    reg->gauge_fn(
        "beehive_placement_scored_total", mode_labels,
        [st]() {
          return static_cast<double>(
              st->scored.load(std::memory_order_relaxed));
        },
        "Bees scored by optimizer rounds in this mode",
        /*counter_semantics=*/true);
  };
  round_gauges("full", &round_full_);
  round_gauges("incremental", &round_incremental_);

  // Tail-latency attribution (DESIGN.md §11): silent trace loss must be
  // visible, so ring overwrites + sampler budget rejections scrape live.
  if (config_.tracer != nullptr) {
    reg->gauge_fn(
        "beehive_trace_dropped_total", labels,
        [tracer = config_.tracer]() {
          return static_cast<double>(tracer->trace_dropped_total());
        },
        "Trace events lost: span-ring overwrites plus tail-sampler "
        "budget rejections",
        /*counter_semantics=*/true);
  }
}

Hive::~Hive() = default;

void Hive::start() {
  arm_app_timers();
  arm_metrics_timer();
}

void Hive::inject(MessageEnvelope env) {
  counters_.injected.bump();  // single-writer: only the loop thread injects
  ensure_trace(env);
  trace_span(SpanKind::kIngress, env, kNoBee);
  route(env);
}

void Hive::inject_batch(std::span<MessageEnvelope> batch) {
  if (batch.empty()) return;
  counters_.injected.bump(batch.size());
  std::size_t i = 0;
  while (i < batch.size()) {
    // Batched activation: open a memoized run when the head of the batch
    // hits the dispatch memo, then feed consecutive messages through the
    // cached route under one bind. Epoch revalidation stays per message
    // (two counter compares — a handler can merge or migrate mid-batch)
    // and Map runs per message as the correctness guard; everything else
    // the memo amortizes is paid once per run.
    if (memo_.valid && !memo_in_use_ && memo_.type == batch[i].type() &&
        bees_epoch_ == memo_.bees_epoch &&
        registry_client_.stamp_valid(memo_.registry_stamp)) {
      std::uint64_t n = 0;
      memo_in_use_ = true;
      while (i < batch.size() && memo_.valid &&
             batch[i].type() == memo_.type &&
             bees_epoch_ == memo_.bees_epoch &&
             registry_client_.stamp_valid(memo_.registry_stamp)) {
        MessageEnvelope& env = batch[i];
        CellSet cells = memo_.binding->map(env);
        if (!(cells == memo_.cells)) break;
        ensure_trace(env);
        trace_span(SpanKind::kIngress, env, kNoBee);
        trace_span(SpanKind::kRegistryResolve, env, memo_.bee->id(), id_);
        deliver_local(*memo_.bee, env, memo_.transfers_expected, &memo_.cells,
                      &memo_.bound);
        ++i;
        ++n;
      }
      memo_in_use_ = false;
      counters_.routed_local.bump(n);
      if (n > 0) continue;
    }
    // This message missed the memo (or invalidated it): full route, one
    // message, then try to re-open a run on the next one.
    MessageEnvelope& env = batch[i];
    ensure_trace(env);
    trace_span(SpanKind::kIngress, env, kNoBee);
    route(env);
    ++i;
  }
}

void Hive::ensure_trace(MessageEnvelope& env) {
  if (env.trace_id() != 0) return;
  // Root ids are minted deterministically — (hive+1) tag over a per-hive
  // counter — so simulated runs stay bit-reproducible with tracing on.
  // hive+1 keeps trace 0 reserved for "untraced".
  std::uint64_t id = (static_cast<std::uint64_t>(id_) + 1) << 40 |
                     ++next_trace_;
  env.set_trace(id, 0, env_.now());
}

bool Hive::e2e_eligible(const MessageEnvelope& env) {
  if (env.trace_id() == 0) return false;
  if (env.causal_depth() > 0) return true;
  // Terminal depth-0 platform self-messages (timer ticks with no emission,
  // metrics reports) would swamp the distribution with pure queue delays.
  return env.type() != msg_type_id<TimerTick>() &&
         env.type() != msg_type_id<LocalMetricsReport>();
}

// ---------------------------------------------------------------------------
// Life of a message (paper §3)
// ---------------------------------------------------------------------------

void Hive::route(const MessageEnvelope& env) {
  if (memo_.valid && memo_.type == env.type() && route_memoized(env)) return;
  apps_.for_each_subscriber(
      env.type(), [&](App& app, const HandlerBinding& binding) {
        if (binding.kind == HandlerBinding::Kind::kForeachLocal) {
          dispatch_foreach_local(app.id(), binding.foreach_dict, env);
        } else {
          dispatch_mapped(app, binding, env);
        }
      });
}

bool Hive::route_memoized(const MessageEnvelope& env) {
  if (bees_epoch_ != memo_.bees_epoch ||
      !registry_client_.stamp_valid(memo_.registry_stamp)) {
    memo_.valid = false;  // a merge/migration/invalidation happened: rebuild
    return false;
  }
  // Map still runs per message (its result depends on the payload); only
  // when it reproduces the memoized cells is the cached route usable.
  CellSet cells = memo_.binding->map(env);
  if (!(cells == memo_.cells)) return false;
  trace_span(SpanKind::kRegistryResolve, env, memo_.bee->id(), id_);
  counters_.routed_local.bump();
  const bool outer = !memo_in_use_;
  memo_in_use_ = true;
  deliver_local(*memo_.bee, env, memo_.transfers_expected, &memo_.cells,
                &memo_.bound);
  if (outer) memo_in_use_ = false;
  return true;
}

void Hive::maybe_install_memo(App& app, const HandlerBinding& binding,
                              CellSet cells, const ResolveOutcome& out) {
  if (memo_in_use_) return;  // a live handler borrows the current memo
  if (binding.kind != HandlerBinding::Kind::kMapped) return;
  if (apps_.subscriber_count(binding.msg_type) != 1) return;
  Bee* bee = find_bee(out.bee);
  if (bee == nullptr) return;
  memo_.valid = true;
  memo_.type = binding.msg_type;
  memo_.binding = &binding;
  memo_.cells = std::move(cells);
  memo_.registry_stamp = registry_client_.stamp(app.id(), memo_.cells);
  memo_.bees_epoch = bees_epoch_;
  memo_.bee = bee;
  memo_.transfers_expected = out.transfers_expected;
  memo_.bound.handle = &binding.handle;
  memo_.bound.policy = AccessPolicy::cells_view(memo_.cells);
}

void Hive::dispatch_mapped(App& app, const HandlerBinding& binding,
                           const MessageEnvelope& env) {
  CellSet cells = binding.map(env);
  if (cells.empty()) return;  // Map returned nothing: app ignores this one.

  ResolveOutcome out = registry_client_.resolve_or_create(
      app.id(), cells, app.pinned(), env_.now());
  if (out.bee == kNoBee) {
    // Registry unreachable (lossy RPC channel, retries exhausted): the
    // message is dropped, like a control-channel loss without transport.
    ++counters_.registry_failures;
    if (config_.recorder != nullptr) {
      config_.recorder->note(id_, "registry resolve failed app=" +
                                      app.name() + "; dropped msg type=" +
                                      std::to_string(env.type()));
    }
    BH_WARN << "hive " << id_ << ": registry resolve failed; dropping "
            << "message of type " << env.type();
    return;
  }
  trace_span(SpanKind::kRegistryResolve, env, out.bee, out.hive);
  if (!out.losers.empty()) {
    ++counters_.merges_started;
    start_merges(app.id(), out);
  }
  // `cells` is borrowed down the synchronous delivery chain so the local
  // path binds the handler's access policy without a second Map run.
  deliver(out.bee, app.id(), out.hive, env, out.transfers_expected, &cells);
  if (out.hive == id_ && out.losers.empty() && !out.created) {
    maybe_install_memo(app, binding, std::move(cells), out);
  }
}

void Hive::dispatch_foreach_local(AppId app, const std::string& dict,
                                  const MessageEnvelope& env) {
  // Snapshot ids first: processing can mutate the bee table (merges).
  std::vector<BeeId> targets;
  targets.reserve(bees_.size());
  for (const auto& [id, bee] : bees_) {
    if (bee->app() != app) continue;
    const Dict* d = bee->store().find_dict(dict);
    if (d != nullptr && !d->empty()) targets.push_back(id);
  }
  for (BeeId id : targets) {
    if (Bee* bee = find_bee(id)) deliver_local(*bee, env);
  }
}

void Hive::deliver(BeeId bee, AppId app, HiveId hive,
                   const MessageEnvelope& env,
                   std::uint64_t min_transfers, const CellSet* mapped) {
  if (hive == id_) {
    Bee* local = find_bee(bee);
    if (local == nullptr) {
      // About to instantiate: make sure the bee didn't just lose a merge
      // (e.g. a held-back message re-routed to a winner that was itself
      // superseded). Never resurrect a dead bee — chase the successor.
      BeeId successor = registry_.live_successor(bee);
      if (successor == kNoBee) {
        if (config_.recorder != nullptr) {
          config_.recorder->note(
              id_, "dropped message for vanished bee " + to_string_bee(bee));
        }
        BH_WARN << "hive " << id_ << ": dropping message for vanished bee "
                << to_string_bee(bee);
        return;
      }
      if (successor != bee) {
        auto new_hive = registry_client_.hive_of(successor, env_.now());
        if (!new_hive.has_value()) {
          ++counters_.registry_failures;
          return;
        }
        deliver(successor, app, *new_hive, env,
                registry_.expected_transfers(successor), mapped);
        return;
      }
      local = &ensure_local_bee(bee, app);
    }
    ++counters_.routed_local;
    deliver_local(*local, env, min_transfers, mapped);
  } else {
    ++counters_.routed_remote;
    send_app_msg(hive, bee, app, min_transfers, env);
  }
}

void Hive::deliver_local(Bee& bee, const MessageEnvelope& env,
                         std::uint64_t min_transfers, const CellSet* mapped,
                         const Bound* pre) {
  bee.note_required_transfers(min_transfers);
  bee.note_receive(env.from_bee(), env.from_hive(), env.wire_size(),
                   /*count_provenance=*/!env.is<TimerTick>(), env.type());
  // Hold when the transfer fence is up — and also behind an existing
  // holdback, so per-bee arrival order is preserved. The borrowed Map
  // result cannot outlive this call, so held messages recompute it when
  // the holdback drains.
  if (bee.blocked() || bee.holdback_size() > 0) {
    trace_span(SpanKind::kHold, env, bee.id());
    // Bounded mailbox (DESIGN.md §10): consult the app's overload policy
    // once the holdback is at its limit. Cold path — steady-state traffic
    // never holds, so the fast path above stays allocation-free.
    const OverloadConfig* oc = bee.overload();
    if (oc != nullptr && oc->bounded &&
        bee.holdback_size() >= oc->mailbox_limit) {
      const Bee::HoldOutcome out =
          bee.hold_bounded(env, *oc, &Hive::is_priority_type);
      if (out != Bee::HoldOutcome::kHeld) {
        ++counters_.shed_total;
        // A mailbox shed terminates the message's causal chain: record the
        // terminal span and let the tail sampler retain the trace (sheds
        // always qualify, independent of latency).
        trace_span(SpanKind::kShed, env, bee.id());
        if (tracing() && env.trace_id() != 0) {
          Duration e2e = env_.now() - env.trace_root_at();
          if (e2e < 0) e2e = 0;
          config_.tracer->note_trace_end(env.trace_id(), e2e,
                                         /*errored=*/true);
        }
        return;
      }
      if (oc->policy == OverloadPolicy::kBlockSender) {
        // Saturation signal for admission control; cleared once the
        // holdback drains (drain() / report_metrics()).
        mailbox_overrun_.store(true, std::memory_order_relaxed);
      }
      return;
    }
    bee.hold(env);
    return;
  }
  process(bee, env, mapped, pre);
}

void Hive::process(Bee& bee, const MessageEnvelope& env,
                   const CellSet* mapped, const Bound* pre) {
  // `pre` is the dispatch memo's already-bound handler+policy; without it,
  // bind here (the bound policy lives on this frame, so the transaction
  // borrows it either way — no AccessPolicy copies on any path).
  std::optional<Bound> bound_storage;
  const Bound* bound = pre;
  if (bound == nullptr) {
    App* app = apps_.find(bee.app());
    assert(app != nullptr && "bee refers to unknown app");
    bound_storage = bind(*app, env, mapped);
    if (!bound_storage) return;
    bound = &*bound_storage;
  }

  counters_.handler_runs.bump();
  bee.window().handler_invocations += 1;
  bee.total().handler_invocations += 1;

  const TimePoint started = env_.now();
  Duration queued = started - env.emitted_at();
  if (queued < 0) queued = 0;
  trace_span(SpanKind::kHandlerStart, env, bee.id());

  // Hand the handler's transaction the hive's reusable log storage unless a
  // reentrant handler already holds it. `busy_reset` is declared before ctx
  // so the flag clears only after the transaction (which may roll back
  // through the scratch) is destroyed.
  Txn::Scratch* scratch = nullptr;
  if (!txn_scratch_busy_) {
    txn_scratch_busy_ = true;
    scratch = &txn_scratch_;
  }
  struct BusyReset {
    bool* flag;
    ~BusyReset() {
      if (flag != nullptr) *flag = false;
    }
  } busy_reset{scratch != nullptr ? &txn_scratch_busy_ : nullptr};
  AppContext ctx(bee.store(), &bound->policy, bee.app(), bee.id(),
                 id_, started, env.type(), scratch);
  TraceLogScope log_scope(env.trace_id(), env.causal_depth());
  // Cost sampling: every activation pays the tick (one increment + mask
  // test); the sampled Nth additionally reads the thread CPU clock around
  // the handler and charges the measured time to the bee and its cells.
  const bool sampled = profiler_.tick();
  const std::uint64_t cpu0 = sampled ? thread_cpu_now_ns() : 0;
  try {
    (*bound->handle)(ctx, env);
    ctx.state().commit();
  } catch (const std::exception& e) {
    // Atomic handler semantics: roll state back, drop emissions.
    ctx.state().rollback();
    ++counters_.handler_failures;
    bee.window().handler_failures += 1;
    bee.total().handler_failures += 1;
    if (sampled) {
      const std::uint64_t dns = thread_cpu_now_ns() - cpu0;
      bee.note_cost(dns);
      profiler_.attribute(ctx.state().policy(), bee.app(), dns);
    }
    const Duration ran_failed = env_.now() - started;
    bee.note_latency(queued, ran_failed);
    queue_total_.record(queued);
    handler_total_.record(ran_failed);
    trace_span(SpanKind::kHandlerEnd, env, bee.id(), 0, /*failed=*/1);
    // Failed traces always qualify for tail retention.
    if (tracing() && e2e_eligible(env)) {
      Duration e2e = env_.now() - env.trace_root_at();
      if (e2e < 0) e2e = 0;
      config_.tracer->note_trace_end(env.trace_id(), e2e, /*errored=*/true);
    }
    // Failure path only: resolve the app name for diagnostics (the hot
    // path above no longer needs the App object at all).
    const App* app = apps_.find(bee.app());
    const std::string app_name =
        app != nullptr ? app->name() : std::to_string(bee.app());
    if (config_.recorder != nullptr) {
      config_.recorder->note(id_, "handler failure app=" + app_name +
                                      " bee=" + to_string_bee(bee.id()) +
                                      ": " + e.what());
    }
    BH_WARN << "handler failure in app " << app_name << " on hive " << id_
            << ": " << e.what();
    return;
  }

  if (sampled) {
    const std::uint64_t dns = thread_cpu_now_ns() - cpu0;
    bee.note_cost(dns);
    profiler_.attribute(ctx.state().policy(), bee.app(), dns);
  }
  bee.note_txn_ops(ctx.state().writes().size());

  const TimePoint ended = env_.now();
  Duration ran = ended - started;
  if (ran < 0) ran = 0;
  // One bucket computation per value, fanned out to every histogram that
  // records it (bee window/total + hive total).
  const auto qv = static_cast<std::uint64_t>(queued);
  const auto rv = static_cast<std::uint64_t>(ran);
  const std::uint32_t qidx = LatencyHistogram::index(qv);
  const std::uint32_t ridx = LatencyHistogram::index(rv);
  bee.note_latency_at(qidx, qv, ridx, rv);
  queue_total_.record_at(qidx, qv);
  handler_total_.record_at(ridx, rv);
  trace_span(SpanKind::kHandlerEnd, env, bee.id(), ctx.emitted().size());

  // A handler that emits nothing terminates its causal chain: the gap from
  // the trace root's ingress to here is one end-to-end latency sample.
  if (ctx.emitted().empty() && e2e_eligible(env)) {
    Duration e2e = ended - env.trace_root_at();
    if (e2e < 0) e2e = 0;
    const auto ev = static_cast<std::uint64_t>(e2e);
    const std::uint32_t eidx = LatencyHistogram::index(ev);
    e2e_window_.record_at(eidx, ev);
    e2e_total_.record_at(eidx, ev);
    // Tail-sampling decision point: slow traces get their spans copied
    // aside before the ring can overwrite them.
    if (tracing()) {
      config_.tracer->note_trace_end(env.trace_id(), e2e, /*errored=*/false);
    }
  }

  replicate_txn(bee, ctx.state());

  // Flush emissions. Routing is deferred by dispatch_delay so that long
  // emission chains are iterative events, not recursion, and so a message
  // emitted "now" is observably later than its cause.
  for (MessageEnvelope& out : ctx.emitted()) {
    out.inherit_trace(env);
    bee.note_emit(env.type(), out.type(), out.wire_size());
    trace_span(SpanKind::kEnqueue, out, bee.id());
    env_.schedule_after(id_, config_.dispatch_delay,
                        [this, m = std::move(out)]() { route_deferred(m); });
  }
  for (auto [target_bee, to_hive] : ctx.migration_orders()) {
    request_migration(target_bee, to_hive);
  }
  if (!ctx.decisions().empty()) record_decisions(env, ctx.decisions());
  if (ctx.round_note().has_value()) {
    const PlacementRoundNote& note = *ctx.round_note();
    PlacementRoundStats& stats =
        note.mode == "full" ? round_full_ : round_incremental_;
    stats.last_us.store(note.duration_us, std::memory_order_relaxed);
    stats.rounds.fetch_add(1, std::memory_order_relaxed);
    stats.scored.fetch_add(note.scored, std::memory_order_relaxed);
    stats.moves.fetch_add(note.moves, std::memory_order_relaxed);
  }
}

void Hive::record_decisions(const MessageEnvelope& env,
                            std::vector<PlacementDecision>& decisions) {
  for (const PlacementDecision& d : decisions) {
    trace_span(SpanKind::kDecision, env, d.bee, d.to, d.accepted ? 1 : 0);
    if (config_.recorder != nullptr || Logger::instance().enabled(
                                           LogLevel::kDebug)) {
      std::string line =
          "decision bee=" + to_string_bee(d.bee) + " from=" +
          std::to_string(d.from) + " to=" + std::to_string(d.to) +
          (d.accepted ? " accepted" : " rejected") + " reason=" + d.reason +
          " msgs=" + std::to_string(d.msgs_from_target) + "/" +
          std::to_string(d.msgs_total) +
          " score=" + std::to_string(d.score);
      if (!d.signal.empty()) {
        // Cost/pressure-driven strategies say which signal ranked the bee
        // and what it measured, so the log explains the *why*, not just
        // the what.
        line += " signal=" + d.signal +
                " cost_us=" + std::to_string(d.cost_us) +
                " pressure=" + std::to_string(d.pressure_from) + "->" +
                std::to_string(d.pressure_to);
      }
      if (config_.recorder != nullptr) {
        config_.recorder->note(id_, line);
      }
      BH_DEBUG << line;
    }
  }
}

void Hive::route_deferred(const MessageEnvelope& env) {
  trace_span(SpanKind::kDequeue, env, env.from_bee());
  route(env);
}

std::optional<Hive::Bound> Hive::bind(App& app, const MessageEnvelope& env,
                                      const CellSet* mapped) const {
  // `mapped` is the dispatch layer's Map result for this message+app; the
  // policy borrows it (it outlives the handler: process() runs inside the
  // dispatch frame that owns it). Without it — holdback drains, foreach
  // deliveries — Map runs here, once.
  if (env.is<TimerTick>()) {
    const TimerTick& tick = env.as<TimerTick>();
    if (tick.app != app.id()) return std::nullopt;
    const TimerBinding* t = app.timer(tick.timer_id);
    if (t == nullptr) return std::nullopt;
    Bound b;
    b.handle = &t->handle;
    if (t->kind != HandlerBinding::Kind::kMapped) {
      b.policy = AccessPolicy::local_dict(t->foreach_dict);
    } else if (mapped != nullptr) {
      b.policy = AccessPolicy::cells_view(*mapped);
    } else {
      b.policy = AccessPolicy::cells(t->map(env));
    }
    return b;
  }
  const HandlerBinding* hb = app.binding_for(env.type());
  if (hb == nullptr) return std::nullopt;
  Bound b;
  b.handle = &hb->handle;
  if (hb->kind != HandlerBinding::Kind::kMapped) {
    b.policy = AccessPolicy::local_dict(hb->foreach_dict);
  } else if (mapped != nullptr) {
    b.policy = AccessPolicy::cells_view(*mapped);
  } else {
    b.policy = AccessPolicy::cells(hb->map(env));
  }
  return b;
}

Bee& Hive::ensure_local_bee(BeeId id, AppId app) {
  auto it = bees_.find(id);
  if (it == bees_.end()) {
    it = bees_.emplace(id, std::make_unique<Bee>(id, app)).first;
    ++bees_epoch_;
    // Point the bee at its app's mailbox bound (immutable deployment
    // config on the shared AppSet) so the hold path needs no app lookup.
    if (const App* a = apps_.find(app)) {
      it->second->set_overload(&a->overload());
    }
  }
  return *it->second;
}

Bee* Hive::find_bee(BeeId id) {
  auto it = bees_.find(id);
  return it == bees_.end() ? nullptr : it->second.get();
}

const Bee* Hive::find_bee(BeeId id) const {
  auto it = bees_.find(id);
  return it == bees_.end() ? nullptr : it->second.get();
}

std::vector<Bee*> Hive::local_bees() {
  std::vector<Bee*> out;
  out.reserve(bees_.size());
  for (auto& [_, bee] : bees_) out.push_back(bee.get());
  return out;
}

void Hive::send_frame(HiveId to, Bytes frame) {
  assert(to != id_ && "send_frame to self; use the local path");
  append_egress(to, frame);
}

void Hive::append_egress(HiveId to, std::string_view frame) {
  if (egress_.size() <= to) egress_.resize(to + 1);
  Egress& e = egress_[to];
  if (e.count == 0) {
    e.buf.u8(static_cast<std::uint8_t>(FrameKind::kBatch));
    e.buf.u32(0);  // frame count; patched at flush
  }
  e.buf.varint(frame.size());
  e.buf.raw(frame);
  ++e.count;
  ++egress_pending_;
  if (egress_pending_ > egress_hwm_window_) {
    egress_hwm_window_ = egress_pending_;
  }
  if (!egress_scheduled_) {
    egress_scheduled_ = true;
    // +0 delay: the flush runs after every event of the current loop turn
    // has appended its frames, so one turn's fan-out to a destination rides
    // one wire unit. Captures only `this` — small enough that the closure
    // itself does not allocate.
    env_.schedule_after(id_, 0, [this]() { flush_egress(); });
  }
}

void Hive::flush_egress() {
  egress_scheduled_ = false;
  egress_pending_ = 0;
  for (std::size_t i = 0; i < egress_.size(); ++i) {
    Egress& e = egress_[i];
    if (e.count == 0) continue;
    e.buf.patch_u32(1, e.count);
    if (tracing()) {
      // Trace-0 link span: the batch aggregates many messages, so the
      // assembler re-attaches it to timelines by interval overlap.
      TraceEvent ev;
      ev.at = env_.now();
      ev.kind = SpanKind::kBatchFlush;
      ev.hive = id_;
      ev.aux = e.count;
      ev.aux2 = i;
      config_.tracer->record(ev);
    }
    e.count = 0;
    // Move the accumulated batch out (the buffer restarts empty); the whole
    // batch is one wire unit from here on — one meter update, one fault
    // decision, one delivery closure, one ack/retransmit under transport.
    Bytes batch = std::move(e.buf).take();
    const HiveId to = static_cast<HiveId>(i);
    if (transport_) {
      transport_->send(to, std::move(batch));
    } else {
      env_.send_frame(id_, to, std::move(batch));
    }
  }
}

void Hive::send_app_msg(HiveId to, BeeId bee, AppId app,
                        std::uint64_t min_transfers,
                        const MessageEnvelope& env) {
  // Serialize the AppMsg frame through the reusable scratch chain (frame →
  // envelope → payload). append_egress copies the bytes into the batch
  // before anything can reenter, so one set of scratch buffers suffices and
  // the steady-state remote send touches the heap only for buffer growth.
  frame_scratch_.clear();
  frame_scratch_.u8(static_cast<std::uint8_t>(FrameKind::kAppMsg));
  frame_scratch_.u64(bee);
  frame_scratch_.u32(app);
  frame_scratch_.varint(min_transfers);
  env_scratch_.clear();
  env.encode_to(env_scratch_, payload_scratch_);
  frame_scratch_.str(env_scratch_.bytes());
  append_egress(to, frame_scratch_.bytes());
}

void Hive::on_wire(std::string_view frame) {
  if (!frame.empty()) {
    const auto kind = static_cast<FrameKind>(
        static_cast<unsigned char>(frame[0]));
    if (kind == FrameKind::kReliable || kind == FrameKind::kAck) {
      if (!transport_) {
        BH_WARN << "hive " << id_ << ": reliable frame but transport is "
                   "disabled; dropping";
        return;
      }
      transport_->on_wire(frame,
                          [this](std::string_view inner) {
                            dispatch_frame(inner);
                          });
      return;
    }
  }
  dispatch_frame(frame);
}

void Hive::dispatch_frame(std::string_view frame) {
  ByteReader r(frame);
  auto kind = static_cast<FrameKind>(r.u8());
  switch (kind) {
    case FrameKind::kAppMsg:
      handle_app_msg(r);
      break;
    case FrameKind::kBatch: {
      // Unpack the batch: each inner frame re-enters dispatch_frame as if
      // it had arrived alone, in append order. Batches never nest.
      const std::uint32_t count = r.u32();
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint64_t len = r.varint();
        dispatch_frame(r.view(len));
      }
      break;
    }
    case FrameKind::kMergeCmd:
      handle_merge_cmd(MergeCmdFrame::decode(r));
      break;
    case FrameKind::kMigrateXfer:
      handle_migrate_xfer(MigrateXferFrame::decode(r));
      break;
    case FrameKind::kMigrateAck:
      handle_migrate_ack(MigrateAckFrame::decode(r));
      break;
    case FrameKind::kMigrationOrder: {
      MigrationOrderFrame f = MigrationOrderFrame::decode(r);
      request_migration(f.bee, f.to_hive);
      break;
    }
    case FrameKind::kReplicaTxn:
      handle_replica_txn(ReplicaTxnFrame::decode(r));
      break;
    case FrameKind::kReplicaSnapshot:
      handle_replica_snapshot(ReplicaSnapshotFrame::decode(r));
      break;
  }
}

void Hive::handle_app_msg(ByteReader& r) {
  // Decoded in place from the frame bytes: header fields are read directly
  // and the envelope payload is borrowed (from_wire materializes the typed
  // body from a view into `env_bytes`, which outlives this synchronous
  // delivery) — the receive path's only unavoidable allocation is the body
  // object itself.
  const BeeId frame_target = r.u64();
  const AppId frame_app = r.u32();
  const std::uint64_t frame_min = r.varint();
  const std::uint64_t env_len = r.varint();
  std::string_view env_bytes = r.view(env_len);
  MessageEnvelope env = MessageEnvelope::from_wire(env_bytes);
  if (Bee* bee = find_bee(frame_target)) {
    deliver_local(*bee, env, frame_min);
    return;
  }
  // Not instantiated here: either it is ours (lazy creation) or it moved
  // and we must forward (sender's cache was stale).
  BeeId target = registry_.live_successor(frame_target);
  if (target == kNoBee) {
    BH_WARN << "hive " << id_ << ": dropping message for unknown bee "
            << to_string_bee(frame_target);
    return;
  }
  auto hive = registry_client_.hive_of(target, env_.now());
  if (!hive.has_value()) {
    ++counters_.registry_failures;
    return;
  }
  // The fence value only meant something for the original target; when
  // retargeting to a merge successor, re-fence at the successor's current
  // expected count — it inherited the dead bee's whole transfer ledger, so
  // this conservatively covers every transfer still chasing it.
  std::uint64_t min = target == frame_target
                          ? frame_min
                          : registry_.expected_transfers(target);
  if (*hive == id_) {
    deliver_local(ensure_local_bee(target, frame_app), env, min);
  } else {
    ++counters_.forwarded;
    // Stale-cache forward (rare): re-frame through the scratch writer,
    // reusing the received envelope bytes verbatim.
    frame_scratch_.clear();
    frame_scratch_.u8(static_cast<std::uint8_t>(FrameKind::kAppMsg));
    frame_scratch_.u64(target);
    frame_scratch_.u32(frame_app);
    frame_scratch_.varint(min);
    frame_scratch_.str(env_bytes);
    append_egress(*hive, frame_scratch_.bytes());
  }
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

void Hive::arm_app_timers() {
  for (const auto& app : apps_.apps()) {
    for (const TimerBinding& timer : app->timers()) {
      if (timer.kind == HandlerBinding::Kind::kMapped &&
          id_ != config_.timer_master) {
        continue;  // mapped ticks fire once cluster-wide.
      }
      arm_timer(*app, timer);
    }
  }
}

void Hive::arm_timer(App& app, const TimerBinding& timer) {
  env_.schedule_after(id_, timer.period, [this, &app, &timer]() {
    if (env_.now() > config_.timers_until) return;
    fire_timer(app, timer);
    arm_timer(app, timer);
  });
}

void Hive::fire_timer(App& app, const TimerBinding& timer) {
  MessageEnvelope env = MessageEnvelope::make(
      TimerTick{app.id(), timer.id}, 0, kNoBee, id_, env_.now());
  ensure_trace(env);
  if (timer.kind == HandlerBinding::Kind::kMapped) {
    CellSet cells = timer.map(env);
    if (cells.empty()) return;
    ResolveOutcome out = registry_client_.resolve_or_create(
        app.id(), cells, app.pinned(), env_.now());
    if (out.bee == kNoBee) {
      ++counters_.registry_failures;
      return;  // registry unreachable; this tick is lost.
    }
    if (!out.losers.empty()) {
      ++counters_.merges_started;
      start_merges(app.id(), out);
    }
    deliver(out.bee, app.id(), out.hive, env, out.transfers_expected, &cells);
  } else {
    dispatch_foreach_local(app.id(), timer.foreach_dict, env);
  }
}

void Hive::arm_metrics_timer() {
  if (config_.metrics_period <= 0) return;
  env_.schedule_after(id_, config_.metrics_period, [this]() {
    if (env_.now() > config_.timers_until) return;
    report_metrics();
    arm_metrics_timer();
  });
}

void Hive::report_metrics() {
  LocalMetricsReport report;
  report.hive = id_;
  report.at = env_.now();
  LatencyHistogram handler_window;
  for (auto& [id, bee] : bees_) {
    BeeMetricsSample sample;
    sample.bee = id;
    sample.app = bee->app();
    if (const App* a = apps_.find(bee->app())) sample.app_name = a->name();
    sample.hive = id_;
    const BeeMetrics& w = bee->window();
    sample.msgs_in = w.msgs_in;
    sample.msgs_out = w.msgs_out;
    sample.bytes_in = w.bytes_in;
    sample.bytes_out = w.bytes_out;
    sample.handler_invocations = w.handler_invocations;
    sample.handler_failures = w.handler_failures;
    sample.queue_latency = w.queue_latency;
    sample.handler_latency = w.handler_latency;
    handler_window.merge(w.handler_latency);
    sample.cost_us = w.cost_ns_sampled * profiler_.scale() / 1000;
    sample.cost_samples = w.cost_samples;
    sample.txn_ops = w.txn_ops;
    sample.cells = bee->store().all_cells().size();
    sample.state_bytes = bee->store().byte_size();
    sample.holdback = bee->holdback_size();
    if (const App* app = apps_.find(bee->app())) {
      sample.pinned = app->pinned();
    }
    for (const auto& [key, count] : w.inbound_hive) {
      sample.sources.push_back({key.first, key.second, count});
    }
    for (const auto& [type, count] : w.inbound_types) {
      sample.in_types.push_back({type, count});
    }
    for (const auto& [pair, count] : w.causation) {
      sample.causations.push_back({pair.first, pair.second, count});
    }
    report.cost_us += sample.cost_us;
    report.hive_cells += sample.cells;
    report.bees.push_back(std::move(sample));
    bee->reset_window();
  }
  report.e2e_latency = e2e_window_;
  e2e_window_.reset();
  report.transport = transport_counters();
  report.migration_aborts = counters_.migration_aborts;
  report.partitions_active =
      config_.faults != nullptr
          ? static_cast<std::uint32_t>(config_.faults->partitions_active())
          : 0;

  // Queue pressure: how much work is waiting relative to how much the hive
  // got through this window. backlog counts the run queue, messages held
  // behind transfer fences, and frames parked in egress buffers; the +1
  // keeps an idle hive at exactly 0.
  std::uint64_t queue_depth = 0;
  for (const BeeMetricsSample& s : report.bees) queue_depth += s.holdback;
  const QueueStats qs = env_.queue_stats(id_);
  const std::uint64_t drained_window =
      qs.drained >= prev_drained_ ? qs.drained - prev_drained_ : 0;
  prev_drained_ = qs.drained;
  const std::uint64_t backlog = qs.depth + queue_depth + egress_pending_;
  report.pressure = static_cast<double>(backlog) /
                    static_cast<double>(backlog + drained_window + 1);
  report.runq_depth = qs.depth;
  report.runq_hwm = qs.hwm;
  report.drained_window = drained_window;
  report.egress_hwm = egress_hwm_window_;
  egress_hwm_window_ = egress_pending_;

  // Overload accounting (DESIGN.md §10): total sheds (mailbox + link),
  // frames currently stalled awaiting credit, and the tightest remaining
  // credit across outbound links.
  report.shed_total = counters_.shed_total.get();
  report.stalled_frames = transport_ != nullptr ? transport_->stalled_now() : 0;
  report.credits = transport_ != nullptr ? transport_->credits_available() : -1;

  // Re-evaluate the kBlockSender saturation flag: once every bounded
  // holdback has drained to below half its limit, admit producers again.
  if (mailbox_overrun_.load(std::memory_order_relaxed)) {
    bool still_full = false;
    for (const auto& [bid, bee] : bees_) {
      const OverloadConfig* oc = bee->overload();
      if (oc != nullptr && oc->bounded &&
          bee->holdback_size() >= oc->mailbox_limit / 2) {
        still_full = true;
        break;
      }
    }
    if (!still_full) {
      mailbox_overrun_.store(false, std::memory_order_relaxed);
    }
  }

  // Refresh the cross-thread health snapshot (independent of whether a
  // metrics registry is attached: /health.json works without /metrics).
  health_.pressure.store(report.pressure, std::memory_order_relaxed);
  health_.retransmit_rate.store(
      report.transport.data_frames > 0
          ? static_cast<double>(report.transport.retransmits) /
                static_cast<double>(report.transport.data_frames)
          : 0.0,
      std::memory_order_relaxed);
  health_.handler_p99_us.store(handler_window.p99(),
                               std::memory_order_relaxed);
  health_.queue_depth.store(queue_depth, std::memory_order_relaxed);
  health_.runq_depth.store(qs.depth, std::memory_order_relaxed);
  health_.cost_us.store(report.cost_us, std::memory_order_relaxed);
  health_.shed_total.store(report.shed_total, std::memory_order_relaxed);
  health_.stalled_frames.store(report.stalled_frames,
                               std::memory_order_relaxed);
  health_.credits.store(report.credits, std::memory_order_relaxed);
  {
    const std::uint64_t shed_delta =
        report.shed_total >= prev_shed_ ? report.shed_total - prev_shed_ : 0;
    const TimePoint dt = report.at - prev_report_at_;
    health_.shed_per_s.store(
        prev_report_at_ > 0 && dt > 0
            ? static_cast<double>(shed_delta) * 1e6 / static_cast<double>(dt)
            : 0.0,
        std::memory_order_relaxed);
    prev_shed_ = report.shed_total;
    prev_report_at_ = report.at;
  }

  // Graceful degradation (DESIGN.md §10): when the health score falls below
  // the configured low-water mark, advertise the reduced credit window on
  // every inbound link (piggybacked on the next acks) so peers throttle
  // traffic toward us. Hysteresis (+5 points) prevents flapping at the
  // threshold; the decision is recomputed once per metrics window, from the
  // same event-driven inputs on both runtimes — no wall clock, no RNG.
  if (config_.degrade_below_score > 0.0) {
    const double score = health().score();
    const bool was_degraded = degraded_.load(std::memory_order_relaxed);
    bool now_degraded = was_degraded;
    if (!was_degraded && score < config_.degrade_below_score) {
      now_degraded = true;
    } else if (was_degraded && score >= config_.degrade_below_score + 5.0) {
      now_degraded = false;
    }
    if (now_degraded != was_degraded) {
      degraded_.store(now_degraded, std::memory_order_relaxed);
      if (transport_ != nullptr) transport_->set_degraded(now_degraded);
    }
  }
  report.degraded = degraded_.load(std::memory_order_relaxed);

  if (config_.metrics != nullptr) {
    const std::uint64_t runs = counters_.handler_runs;
    publish_window(report, runs - prev_handler_runs_, queue_depth);
    prev_handler_runs_ = runs;
  }
  inject(MessageEnvelope::make(std::move(report), 0, kNoBee, id_,
                               env_.now()));
}

HiveHealth Hive::health() const {
  HiveHealth h;
  h.hive = id_;
  h.pressure = health_.pressure.load(std::memory_order_relaxed);
  h.retransmit_rate =
      health_.retransmit_rate.load(std::memory_order_relaxed);
  h.suspected = false;
  h.handler_p99_us = health_.handler_p99_us.load(std::memory_order_relaxed);
  h.queue_depth = health_.queue_depth.load(std::memory_order_relaxed);
  h.runq_depth = health_.runq_depth.load(std::memory_order_relaxed);
  h.handler_failures = counters_.handler_failures;
  h.cost_us_window = health_.cost_us.load(std::memory_order_relaxed);
  h.shed_total = health_.shed_total.load(std::memory_order_relaxed);
  h.shed_per_s = health_.shed_per_s.load(std::memory_order_relaxed);
  h.credits = health_.credits.load(std::memory_order_relaxed);
  h.stalled = health_.stalled_frames.load(std::memory_order_relaxed);
  h.degraded = degraded_.load(std::memory_order_relaxed);
  h.trace_dropped =
      config_.tracer != nullptr ? config_.tracer->trace_dropped_total() : 0;
  return h;
}

void Hive::publish_window(const LocalMetricsReport& report,
                          std::uint64_t window_msgs,
                          std::uint64_t queue_depth) {
  published_.msgs_window->push(report.at,
                               static_cast<double>(window_msgs));
  published_.e2e_p99_window->push(
      report.at, static_cast<double>(report.e2e_latency.p99()));
  published_.bees->set(static_cast<double>(bees_.size()));
  published_.cells->set(static_cast<double>(report.hive_cells));
  published_.queue_depth->set(static_cast<double>(queue_depth));
  published_.e2e->merge(report.e2e_latency);
  for (const BeeMetricsSample& s : report.bees) {
    published_.queue->merge(s.queue_latency);
    published_.handler->merge(s.handler_latency);
  }
  const TransportCounters& t = report.transport;
  published_.tx_data->set(static_cast<double>(t.data_frames));
  published_.tx_retransmits->set(static_cast<double>(t.retransmits));
  published_.tx_acks->set(static_cast<double>(t.acks_sent));
  published_.tx_dups->set(static_cast<double>(t.dup_frames_dropped));
  published_.tx_reorder->set(static_cast<double>(t.reorder_buffered));
  published_.tx_abandoned->set(static_cast<double>(t.frames_abandoned));
  published_.partitions->set(static_cast<double>(report.partitions_active));
  published_.pressure->set(report.pressure);
  published_.runq_depth->set(static_cast<double>(report.runq_depth));
  published_.runq_hwm->set(static_cast<double>(report.runq_hwm));
  published_.drained_window->push(
      report.at, static_cast<double>(report.drained_window));
  published_.egress_hwm->set(static_cast<double>(report.egress_hwm));
  published_.cost_window->push(report.at,
                               static_cast<double>(report.cost_us));
  published_.link_credits->set(static_cast<double>(report.credits));
  published_.link_stalled->set(static_cast<double>(report.stalled_frames));
  published_.degraded->set(report.degraded ? 1.0 : 0.0);
}

}  // namespace beehive
