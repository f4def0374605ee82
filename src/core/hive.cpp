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
  txn_scratch_.redo_values = replicating();
  if (config_.transport.enabled) {
    transport_ =
        std::make_unique<ReliableTransport>(id_, env_, config_.transport);
    // Link-level sheds and mailbox sheds share one metric cell.
    transport_->set_shed_counter(&counters_.shed_total);
    // Link-level spans (stall/retransmit/shed) land in the hive's recorder.
    transport_->set_tracer(config_.tracer);
  }
  // The report timer builds a LocalMetricsReport on the loop thread.
  // Register the type here, before any loop runs: the type registry takes
  // concurrent lookups but not concurrent first registrations.
  register_metrics_messages();
  register_metrics();
}

namespace {

/// The reliable transport's lifetime totals, exposed as counters.
struct TransportFamily {
  const char* family;
  const char* help;
  Counter TransportCounters::* field;
};
constexpr TransportFamily kTransportFamilies[] = {
    {"beehive_transport_data_frames",
     "Reliable transport: data frames first-sent (lifetime)",
     &TransportCounters::data_frames},
    {"beehive_transport_retransmits",
     "Reliable transport: frames re-sent on ack timeout (lifetime)",
     &TransportCounters::retransmits},
    {"beehive_transport_acks_sent",
     "Reliable transport: standalone ack frames (lifetime)",
     &TransportCounters::acks_sent},
    {"beehive_transport_dup_frames_dropped",
     "Reliable transport: receive-side dedup discards (lifetime)",
     &TransportCounters::dup_frames_dropped},
    {"beehive_transport_reorder_buffered",
     "Reliable transport: frames held for in-order delivery (lifetime)",
     &TransportCounters::reorder_buffered},
    {"beehive_transport_frames_abandoned",
     "Reliable transport: frames dropped after the retransmit cap",
     &TransportCounters::frames_abandoned},
};

}  // namespace

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

  const TransportCounters& transport = transport_counters();
  for (const TransportFamily& row : kTransportFamilies) {
    reg->expose_counter(row.family, labels, &(transport.*row.field),
                        row.help);
  }

  // Latency cells: written by the loop thread per handler run, read live.
  reg->expose_histogram(
      "beehive_e2e_latency_us", labels, &e2e_latency_,
      "Trace ingress to terminal handler latency (microseconds)");
  reg->expose_histogram("beehive_queue_latency_us", labels, &queue_latency_,
                        "Emission to handler-start latency (microseconds)");
  reg->expose_histogram("beehive_handler_latency_us", labels,
                        &handler_latency_, "Handler duration (microseconds)");

  // Signal gauges: pulled at scrape time from the snapshot health() reads,
  // which report_metrics() refreshes once per window.
  for (const HiveSignal& row : kHiveSignals) {
    if (row.family.empty()) continue;
    reg->gauge_fn(
        std::string(row.family), labels,
        [this, field = row.field] {
          std::lock_guard lock(signals_mutex_);
          return signals_.*field;
        },
        std::string(row.help));
  }

  // Optimizer rounds (DESIGN.md §13): non-zero only on the hive hosting
  // the collector bee.
  reg->gauge_fn(
      "beehive_placement_round_us", labels,
      [this] {
        return static_cast<double>(
            placement_rounds_.last_us.load(std::memory_order_relaxed));
      },
      "Wall-clock microseconds of the latest optimizer round (view "
      "assembly + scoring)");
  reg->gauge_fn(
      "beehive_placement_rounds_total", labels,
      [this] {
        return static_cast<double>(
            placement_rounds_.rounds.load(std::memory_order_relaxed));
      },
      "Optimizer rounds completed", /*counter_semantics=*/true);
  reg->gauge_fn(
      "beehive_placement_scored_total", labels,
      [this] {
        return static_cast<double>(
            placement_rounds_.scored.load(std::memory_order_relaxed));
      },
      "Bees scored by optimizer rounds", /*counter_semantics=*/true);

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
  counters_.injected.bump();
  ensure_trace(env);
  trace_span(SpanKind::kIngress, env, kNoBee);
  route(env);
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
  apps_.for_each_subscriber(
      env.type(), [&](App& app, const HandlerBinding& binding) {
        dispatch_mapped(app, binding, env);
      });
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
    counters_.registry_failures.bump();
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
    counters_.merges_started.bump();
    start_merges(app.id(), out);
  }
  // `cells` is borrowed down the synchronous delivery chain so the local
  // path binds the handler's access policy without a second Map run.
  deliver(out.bee, app.id(), out.hive, env, out.transfers_expected, &cells);
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
          counters_.registry_failures.bump();
          return;
        }
        deliver(successor, app, *new_hive, env,
                registry_.expected_transfers(successor), mapped);
        return;
      }
      local = &ensure_local_bee(bee, app);
    }
    counters_.routed_local.bump();
    deliver_local(*local, env, min_transfers, mapped);
  } else {
    counters_.routed_remote.bump();
    send_app_msg(hive, bee, app, min_transfers, env);
  }
}

void Hive::deliver_local(Bee& bee, const MessageEnvelope& env,
                         std::uint64_t min_transfers, const CellSet* mapped) {
  bee.note_required_transfers(min_transfers);
  bee.note_receive(env.from_hive(), /*count_provenance=*/!env.is<TimerTick>(),
                   env.type());
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
      if (!bee.hold_bounded(env, *oc, &Hive::is_priority_type)) {
        counters_.shed_total.bump();
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
  process(bee, env, mapped);
}

void Hive::process(Bee& bee, const MessageEnvelope& env,
                   const CellSet* mapped) {
  // The bound policy lives on this frame and the transaction borrows it:
  // no AccessPolicy copies on any path.
  App* app = apps_.find(bee.app());
  assert(app != nullptr && "bee refers to unknown app");
  const std::optional<Bound> bound = bind(*app, env, mapped);
  if (!bound) return;

  counters_.handler_runs.bump();

  const TimePoint started = env_.now();
  const Duration queued = started - env.emitted_at();
  trace_span(SpanKind::kHandlerStart, env, bee.id());

  // Hand the handler's transaction the hive's reusable log storage unless a
  // reentrant handler already holds it. `busy_reset` is declared before ctx
  // so the flag clears only after the transaction (which may roll back
  // through the scratch) is destroyed.
  Txn::Scratch reentrant_scratch;
  Txn::Scratch* scratch = &reentrant_scratch;
  if (txn_scratch_busy_) {
    reentrant_scratch.redo_values = txn_scratch_.redo_values;
  } else {
    txn_scratch_busy_ = true;
    scratch = &txn_scratch_;
  }
  struct BusyReset {
    bool* flag;
    ~BusyReset() {
      if (flag != nullptr) *flag = false;
    }
  } busy_reset{scratch == &txn_scratch_ ? &txn_scratch_busy_ : nullptr};
  AppContext ctx(bee.store(), &bound->policy, bee.app(), bee.id(),
                 id_, started, env.type(), scratch);
  // Cost sampling: every activation pays the tick (one increment + mask
  // test); the sampled Nth additionally reads the thread CPU clock around
  // the handler and charges the measured time to the bee.
  const bool sampled = profiler_.tick();
  const std::uint64_t cpu0 = sampled ? thread_cpu_now_ns() : 0;
  try {
    (*bound->handle)(ctx, env);
    ctx.state().commit();
  } catch (const std::exception& e) {
    // Atomic handler semantics: roll state back, drop emissions.
    ctx.state().rollback();
    counters_.handler_failures.bump();
    if (sampled) bee.note_cost(thread_cpu_now_ns() - cpu0);
    record_latency(bee, queued, env_.now() - started);
    trace_span(SpanKind::kHandlerEnd, env, bee.id(), 0, /*failed=*/1);
    // Failed traces always qualify for tail retention.
    if (tracing() && e2e_eligible(env)) {
      Duration e2e = env_.now() - env.trace_root_at();
      if (e2e < 0) e2e = 0;
      config_.tracer->note_trace_end(env.trace_id(), e2e, /*errored=*/true);
    }
    if (config_.recorder != nullptr) {
      config_.recorder->note(id_, "handler failure app=" + app->name() +
                                      " bee=" + to_string_bee(bee.id()) +
                                      ": " + e.what());
    }
    BH_WARN << "handler failure in app " << app->name() << " on hive " << id_
            << ": " << e.what();
    return;
  }

  if (sampled) bee.note_cost(thread_cpu_now_ns() - cpu0);

  const TimePoint ended = env_.now();
  record_latency(bee, queued, ended - started);
  trace_span(SpanKind::kHandlerEnd, env, bee.id(), ctx.emitted().size());

  // A handler that emits nothing terminates its causal chain: the gap from
  // the trace root's ingress to here is one end-to-end latency sample.
  if (ctx.emitted().empty() && e2e_eligible(env)) {
    Duration e2e = ended - env.trace_root_at();
    if (e2e < 0) e2e = 0;
    const auto ev = static_cast<std::uint64_t>(e2e);
    const std::uint32_t eidx = LatencyHistogram::index(ev);
    e2e_window_.record_at(eidx, ev);
    e2e_latency_.bump_at(eidx, ev);
    // Tail-sampling decision point: slow traces get their spans copied
    // aside before the ring can overwrite them.
    if (tracing()) {
      config_.tracer->note_trace_end(env.trace_id(), e2e, /*errored=*/false);
    }
  }

  replicate_txn(bee, ctx.state());

  // Emissions wait in the outbox; the end-of-turn flush routes them.
  for (MessageEnvelope& out : ctx.emitted()) {
    out.inherit_trace(env);
    bee.note_emit(env.type(), out.type());
    trace_span(SpanKind::kEnqueue, out, bee.id());
    outbox_.push_back(std::move(out));
  }
  if (!ctx.emitted().empty()) schedule_flush();
  for (auto [target_bee, to_hive] : ctx.migration_orders()) {
    request_migration(target_bee, to_hive);
  }
  if (!ctx.decisions().empty()) record_decisions(env, ctx.decisions());
  if (ctx.round_note().has_value()) {
    const PlacementRoundNote& note = *ctx.round_note();
    placement_rounds_.last_us.store(note.duration_us,
                                    std::memory_order_relaxed);
    placement_rounds_.rounds.fetch_add(1, std::memory_order_relaxed);
    placement_rounds_.scored.fetch_add(note.scored,
                                       std::memory_order_relaxed);
  }
}

void Hive::record_latency(Bee& bee, Duration queued, Duration ran) {
  // One bucket computation for the run latency, fanned out to the bee's
  // window and the hive's cell.
  const auto qv = static_cast<std::uint64_t>(queued < 0 ? 0 : queued);
  const auto rv = static_cast<std::uint64_t>(ran < 0 ? 0 : ran);
  const std::uint32_t ridx = LatencyHistogram::index(rv);
  bee.window().handler_latency.record_at(ridx, rv);
  queue_latency_.bump_at(LatencyHistogram::index(qv), qv);
  handler_latency_.bump_at(ridx, rv);
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

std::optional<Hive::Bound> Hive::bind(App& app, const MessageEnvelope& env,
                                      const CellSet* mapped) const {
  // `mapped` is the dispatch layer's Map result for this message+app; the
  // policy borrows it (it outlives the handler: process() runs inside the
  // dispatch frame that owns it). Without it — holdback drains, foreach
  // deliveries — Map runs here, once.
  const HandlerBinding* hb = nullptr;
  if (env.is<TimerTick>()) {
    const TimerTick& tick = env.as<TimerTick>();
    if (tick.app != app.id()) return std::nullopt;
    const TimerBinding* t = app.timer(tick.timer_id);
    if (t != nullptr) hb = &t->binding;
  } else {
    hb = app.binding_for(env.type());
  }
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
  schedule_flush();
}

void Hive::schedule_flush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  // +0 delay: the flush runs after every event of the current loop turn
  // has emitted and appended, so one turn's fan-out to a destination rides
  // one wire unit. Captures only `this` — small enough that the closure
  // itself does not allocate.
  env_.schedule_after(id_, 0, [this]() { flush(); });
}

void Hive::flush() {
  // Emissions the routing below makes land in the emptied outbox and wait
  // for the next flush: a local ping-pong cannot starve posted work.
  outbox_.swap(routing_);
  for (const MessageEnvelope& m : routing_) {
    trace_span(SpanKind::kDequeue, m, m.from_bee());
    route(m);
  }
  routing_.clear();
  flush_scheduled_ = false;
  if (!outbox_.empty()) schedule_flush();
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
  // Serialize the kAppMsg frame through the reusable scratch chain (frame →
  // envelope → payload). append_egress copies the bytes into the batch
  // before anything can reenter, so one set of scratch buffers suffices and
  // the steady-state remote send touches the heap only for buffer growth.
  env_scratch_.clear();
  env.encode_to(env_scratch_, payload_scratch_);
  frame_scratch_.clear();
  write_app_msg(frame_scratch_,
                {bee, app, min_transfers, env_scratch_.bytes()});
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
  // body from `frame.envelope`, a view into the frame, which outlives this
  // synchronous delivery) — the receive path's only unavoidable allocation
  // is the body object itself.
  const AppMsg frame = read_app_msg(r);
  MessageEnvelope env = MessageEnvelope::from_wire(frame.envelope);
  if (Bee* bee = find_bee(frame.target)) {
    deliver_local(*bee, env, frame.min_transfers);
    return;
  }
  // Not instantiated here: either it is ours (lazy creation) or it moved
  // and we must forward (sender's cache was stale).
  BeeId target = registry_.live_successor(frame.target);
  if (target == kNoBee) {
    BH_WARN << "hive " << id_ << ": dropping message for unknown bee "
            << to_string_bee(frame.target);
    return;
  }
  auto hive = registry_client_.hive_of(target, env_.now());
  if (!hive.has_value()) {
    counters_.registry_failures.bump();
    return;
  }
  // The fence value only meant something for the original target; when
  // retargeting to a merge successor, re-fence at the successor's current
  // expected count — it inherited the dead bee's whole transfer ledger, so
  // this conservatively covers every transfer still chasing it.
  std::uint64_t min = target == frame.target
                          ? frame.min_transfers
                          : registry_.expected_transfers(target);
  if (*hive == id_) {
    deliver_local(ensure_local_bee(target, frame.app), env, min);
  } else {
    counters_.forwarded.bump();
    // Stale-cache forward (rare): re-frame through the scratch writer,
    // reusing the received envelope bytes verbatim.
    frame_scratch_.clear();
    write_app_msg(frame_scratch_, {target, frame.app, min, frame.envelope});
    append_egress(*hive, frame_scratch_.bytes());
  }
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

void Hive::arm_app_timers() {
  for (const auto& app : apps_.apps()) {
    for (const TimerBinding& timer : app->timers()) {
      if (timer.binding.kind == HandlerBinding::Kind::kMapped &&
          id_ != kTimerMaster) {
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
  if (timer.binding.kind == HandlerBinding::Kind::kMapped) {
    dispatch_mapped(app, timer.binding, env);
  } else {
    dispatch_foreach_local(app.id(), timer.binding.foreach_dict, env);
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
  HiveSignals& sig = report.signals;
  LatencyHistogram handler_window;
  for (auto& [id, bee] : bees_) {
    BeeMetricsSample sample;
    sample.bee = id;
    sample.app = bee->app();
    if (const App* app = apps_.find(bee->app())) {
      sample.app_name = app->name();
      sample.pinned = app->pinned();
    }
    sample.hive = id_;
    const BeeMetrics& w = bee->window();
    sample.msgs_in = w.msgs_in;
    sample.handler_p99_us = w.handler_latency.p99();
    handler_window.merge(w.handler_latency);
    sample.cost_us = w.cost_ns_sampled * profiler_.scale() / 1000;
    sample.cells = bee->store().cell_count();
    sample.holdback = bee->holdback_size();
    for (const auto& [from_hive, count] : w.inbound_by_hive) {
      sample.sources.push_back({from_hive, count});
    }
    for (const auto& [type, count] : w.inbound_types) {
      sample.in_types.push_back({type, count});
    }
    for (const auto& [pair, count] : w.causation) {
      sample.causations.push_back({pair.first, pair.second, count});
    }
    sig.cost_us += static_cast<double>(sample.cost_us);
    sig.cells += static_cast<double>(sample.cells);
    sig.queue_depth += static_cast<double>(sample.holdback);
    report.bees.push_back(std::move(sample));
    bee->reset_window();
  }
  sig.bees = static_cast<double>(report.bees.size());
  sig.handler_p99_us = static_cast<double>(handler_window.p99());
  report.e2e_latency = e2e_window_;
  e2e_window_.reset();
  const TransportCounters& t = transport_counters();
  sig.retransmit_rate = t.data_frames > 0
                            ? static_cast<double>(t.retransmits) /
                                  static_cast<double>(t.data_frames)
                            : 0.0;
  sig.migration_aborts = static_cast<double>(counters_.migration_aborts);
  sig.partitions_active =
      config_.faults != nullptr
          ? static_cast<double>(config_.faults->partitions_active())
          : 0.0;

  // Queue pressure: how much work is waiting relative to how much the hive
  // got through this window. backlog counts the run queue, messages held
  // behind transfer fences, emissions in the outbox and frames parked in
  // egress buffers; the +1 keeps an idle hive at exactly 0.
  const QueueStats qs = env_.queue_stats(id_);
  sig.runq_depth = static_cast<double>(qs.depth);
  sig.runq_hwm = static_cast<double>(qs.hwm);
  sig.drained_window = static_cast<double>(
      qs.drained >= prev_drained_ ? qs.drained - prev_drained_ : 0);
  prev_drained_ = qs.drained;
  sig.egress_hwm = static_cast<double>(egress_hwm_window_);
  egress_hwm_window_ = egress_pending_;
  const double backlog = sig.runq_depth + sig.queue_depth +
                         static_cast<double>(outbox_.size() + egress_pending_);
  sig.pressure = backlog / (backlog + sig.drained_window + 1.0);

  // Overload accounting (DESIGN.md §10): total sheds (mailbox + link) and
  // their rate over this window, frames currently stalled awaiting credit,
  // and the tightest remaining credit across outbound links.
  const std::uint64_t shed = counters_.shed_total.get();
  const std::uint64_t shed_delta = shed >= prev_shed_ ? shed - prev_shed_ : 0;
  const TimePoint dt = report.at - prev_report_at_;
  sig.shed_total = static_cast<double>(shed);
  sig.shed_per_s = prev_report_at_ > 0 && dt > 0
                       ? static_cast<double>(shed_delta) * 1e6 /
                             static_cast<double>(dt)
                       : 0.0;
  prev_shed_ = shed;
  prev_report_at_ = report.at;
  sig.stalled = static_cast<double>(
      transport_ != nullptr ? transport_->stalled_now() : 0);
  sig.credits = static_cast<double>(
      transport_ != nullptr ? transport_->credits_available() : -1);

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

  // Refresh the cross-thread snapshot that health() and the signal
  // gauges read.
  {
    std::lock_guard lock(signals_mutex_);
    signals_ = sig;
  }
  inject(MessageEnvelope::make(std::move(report), 0, kNoBee, id_,
                               env_.now()));
}

HiveHealth Hive::health() const {
  HiveHealth h;
  h.hive = id_;
  {
    std::lock_guard lock(signals_mutex_);
    h.signals = signals_;
  }
  h.handler_failures = counters_.handler_failures;
  h.trace_dropped =
      config_.tracer != nullptr ? config_.tracer->trace_dropped_total() : 0;
  return h;
}

}  // namespace beehive
