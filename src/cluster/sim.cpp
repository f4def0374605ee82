#include "cluster/sim.h"

#include <cassert>
#include <stdexcept>

namespace beehive {

SimCluster::SimCluster(ClusterConfig config, const AppSet& apps)
    : ClusterBase(config), rng_(config.seed) {
  queues_.resize(config_.n_hives);
  // Single-threaded runtime: pulling spans from inside a dump is safe.
  if (recorder_ && config_.tracing) {
    recorder_->set_span_source([this] { return trace_events(); });
    recorder_->set_trace_source(
        [this] { return blame_summary_text(assembled_traces(8)); });
  }
  build_hives(apps);
  // Registry RPC attempts traverse the same lossy network as frames.
  registry_.set_rpc_fault_hook([this](HiveId requester) {
    return faults_.active() &&
           faults_.rpc_lost(requester, kRegistryHive, rng_);
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
    fate = faults_.decide(from, to, kWireLatency, rng_);
    if (fate.copies == 0) return;  // dropped or partitioned
  }
  Hive* target = hives_[to].get();
  for (std::uint8_t copy = 0; copy < fate.copies; ++copy) {
    Bytes payload = (copy + 1 == fate.copies) ? std::move(frame) : frame;
    events_.push(
        Event{now_ + kWireLatency + fate.extra_delay[copy],
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
  if (hive == kRegistryHive) {
    // Fault tolerance of the lock service itself is out of the paper's
    // scope (DESIGN.md §2, "Registry") — reject loudly rather than
    // producing a silently wedged cluster.
    throw std::invalid_argument(
        "fail_hive: the registry master cannot be failed");
  }
  failed_.insert(hive);
}

HealthReport SimCluster::health() const {
  return health_report(now_, [this](HiveId h) { return !hive_alive(h); });
}

std::vector<AssembledTrace> SimCluster::assembled_traces(
    std::size_t top_n) const {
  // Single-threaded runtime: reading the recorders directly is safe.
  return assemble_from_recorders(recorders(), top_n);
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
