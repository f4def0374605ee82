#include "cluster/sim.h"

#include <cassert>
#include <stdexcept>

#include "cluster/telemetry.h"

namespace beehive {

SimCluster::SimCluster(ClusterConfig config, const AppSet& apps)
    : config_(config),
      meter_(config.n_hives, config.bw_bucket),
      registry_(config.n_hives, &meter_, config.registry_hive),
      rng_(config.seed) {
  assert(config_.n_hives > 0);
  config_.hive.n_hives = config_.n_hives;
  queues_.resize(config_.n_hives);
  if (config_.metrics) metrics_ = std::make_unique<MetricsRegistry>();
  if (config_.flight_recorder) {
    recorder_ = std::make_unique<FlightRecorder>(
        config_.flight_recorder_lines,
        static_cast<std::size_t>(config_.n_hives));
    // Single-threaded runtime: pulling spans from inside a dump is safe.
    if (config_.tracing) {
      recorder_->set_span_source([this] { return trace_events(); });
      recorder_->set_trace_source(
          [this] { return blame_summary_text(assembled_traces(8)); });
    }
  }
  hives_.reserve(config_.n_hives);
  if (config_.tracing) tracers_.reserve(config_.n_hives);
  for (HiveId id = 0; id < config_.n_hives; ++id) {
    HiveConfig hc = config_.hive;
    if (config_.tracing) {
      tracers_.push_back(
          std::make_unique<TraceRecorder>(config_.trace_capacity));
      if (config_.tail.enabled) {
        tracers_.back()->configure_tail(config_.tail);
      }
      hc.tracer = tracers_.back().get();
    }
    hc.faults = &faults_;
    hc.metrics = metrics_.get();
    hc.recorder = recorder_.get();
    hives_.push_back(
        std::make_unique<Hive>(id, apps, registry_, *this, hc));
  }
  if (metrics_) register_cluster_metrics(*metrics_, meter_, registry_);
  // Registry RPC attempts traverse the same lossy network as frames.
  registry_.set_rpc_fault_hook([this](HiveId requester) {
    return faults_.active() &&
           faults_.rpc_lost(requester, config_.registry_hive, rng_);
  });
}

SimCluster::~SimCluster() = default;

void SimCluster::start() {
  for (auto& hive : hives_) hive->start();
}

void SimCluster::schedule_after(HiveId hive, Duration delay,
                                std::function<void()> fn) {
  assert(delay >= 0);
  // Pressure accounting: this event sits in `hive`'s slice of the queue
  // until it fires (the wrapper below settles the books either way).
  if (hive < queues_.size()) {
    QueueStats& q = queues_[hive];
    q.depth += 1;
    if (q.depth > q.hwm) q.hwm = q.depth;
  }
  // A crashed hive's pending callbacks (timers, flushes) must not run:
  // check liveness at fire time, not at scheduling time.
  events_.push(Event{now_ + delay, next_seq_++,
                     [this, hive, f = std::move(fn)]() {
                       if (hive < queues_.size()) {
                         QueueStats& q = queues_[hive];
                         if (q.depth > 0) q.depth -= 1;
                         q.drained += 1;
                       }
                       if (hive_alive(hive)) f();
                     }});
}

void SimCluster::send_frame(HiveId from, HiveId to, Bytes frame) {
  assert(from < hives_.size() && to < hives_.size());
  if (!hive_alive(from) || !hive_alive(to)) return;  // crash = silence
  meter_.record(from, to, frame.size(), now_);
  // Channel transit spans: send on the source recorder, receive on the
  // destination's, paired by the event sequence number of the delivery.
  const std::uint64_t frame_seq = next_seq_;
  const auto kind = frame.empty()
                        ? MsgTypeId{0}
                        : static_cast<MsgTypeId>(
                              static_cast<unsigned char>(frame[0]));
  const auto bytes = static_cast<std::uint32_t>(frame.size());
  if (TraceRecorder* t = tracer(from); t != nullptr) {
    t->record(TraceEvent{now_, SpanKind::kChannelSend, bytes, 0, from, kNoBee,
                         0, kind, frame_seq, to});
  }
  // The fault plan decides this frame's fate (drop / duplicate / delay).
  // Fault-free plans never touch the RNG, so clean runs stay bit-identical
  // to builds without fault injection.
  FaultPlan::Delivery fate;
  if (faults_.active()) {
    fate = faults_.decide(from, to, config_.wire_latency, rng_);
    if (fate.copies == 0) return;  // dropped or partitioned
  }
  Hive* target = hives_[to].get();
  for (std::uint8_t copy = 0; copy < fate.copies; ++copy) {
    Bytes payload = (copy + 1 == fate.copies) ? std::move(frame) : frame;
    events_.push(
        Event{now_ + config_.wire_latency + fate.extra_delay[copy],
              next_seq_++,
              [this, from, to, target, frame_seq, kind, bytes,
               f = std::move(payload)]() {
                if (!hive_alive(to)) return;
                if (TraceRecorder* t = tracer(to); t != nullptr) {
                  t->record(TraceEvent{now_, SpanKind::kChannelRecv, bytes, 0,
                                       from, kNoBee, 0, kind, frame_seq, to});
                }
                target->on_wire(f);
              }});
  }
}

bool SimCluster::step() {
  if (events_.empty()) return false;
  Event event = events_.top();
  events_.pop();
  assert(event.at >= now_ && "event scheduled in the past");
  now_ = event.at;
  event.fn();
  return true;
}

void SimCluster::run_until(TimePoint t) {
  while (!events_.empty() && events_.top().at <= t) step();
  if (now_ < t) now_ = t;
}

void SimCluster::run_to_idle() {
  while (step()) {
  }
}

void SimCluster::fail_hive(HiveId hive) {
  if (hive >= hives_.size()) {
    throw std::invalid_argument("fail_hive: no such hive");
  }
  if (hive == config_.registry_hive) {
    // Fault tolerance of the lock service itself is out of the paper's
    // scope (DESIGN.md §2, "Registry") — reject loudly rather than
    // producing a silently wedged cluster.
    throw std::invalid_argument(
        "fail_hive: the registry master cannot be failed");
  }
  failed_.insert(hive);
}

HealthReport SimCluster::health() const {
  HealthReport report;
  report.at = now_;
  report.hives.reserve(hives_.size());
  for (const auto& hive : hives_) {
    HiveHealth h = hive->health();
    h.suspected = !hive_alive(h.hive);
    report.hives.push_back(h);
  }
  report.registry_shards = registry_shard_health(registry_);
  return report;
}

std::vector<TraceEvent> SimCluster::trace_events() const {
  std::vector<const TraceRecorder*> recorders;
  recorders.reserve(tracers_.size());
  for (const auto& t : tracers_) recorders.push_back(t.get());
  return merge_trace_events(recorders);
}

std::vector<AssembledTrace> SimCluster::assembled_traces(
    std::size_t top_n) const {
  // Single-threaded runtime: reading the recorders directly is safe.
  std::vector<const TraceRecorder*> recorders;
  recorders.reserve(tracers_.size());
  for (const auto& t : tracers_) recorders.push_back(t.get());
  return assemble_from_recorders(recorders, top_n);
}

std::string SimCluster::traces_json(std::size_t top_n) const {
  return beehive::traces_json(assembled_traces(top_n), now_);
}

std::size_t SimCluster::recover_hive(HiveId hive) {
  if (hive >= hives_.size()) {
    throw std::invalid_argument("recover_hive: no such hive");
  }
  if (hive_alive(hive)) {
    throw std::logic_error("recover_hive: hive " + std::to_string(hive) +
                           " has not failed");
  }
  if (recovered_.contains(hive)) {
    throw std::logic_error("recover_hive: hive " + std::to_string(hive) +
                           " was already recovered");
  }
  recovered_.insert(hive);
  std::size_t recovered_with_state = 0;
  for (const BeeRecord& rec : registry_.live_bees()) {
    if (rec.hive != hive) continue;
    // Ring successor, skipping other failed hives.
    HiveId target = static_cast<HiveId>((hive + 1) % hives_.size());
    while (!hive_alive(target) && target != hive) {
      target = static_cast<HiveId>((target + 1) % hives_.size());
    }
    if (target == hive) break;  // nobody left to adopt
    registry_.move_bee(rec.id, target, now_);
    // The adopted bee restarts with fresh fence counters; transfers that
    // were in flight to the dead hive are lost with it.
    registry_.reset_expected_transfers(rec.id);
    if (hives_[target]->adopt_from_replica(rec.id, rec.app)) {
      ++recovered_with_state;
    }
  }
  return recovered_with_state;
}

}  // namespace beehive
