#include "instrument/blame.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "msg/registry.h"
#include "util/logging.h"

namespace beehive {

namespace {

std::uint64_t ud(Duration d) {
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

std::string msg_name(MsgTypeId type) {
  if (type == 0) return "?";
  return std::string(MsgTypeRegistry::instance().name_of(type));
}

/// True for trace-0 spans that describe the wire between two hives rather
/// than one message's journey. (Mailbox kShed carries a trace id and stays
/// a trace span; transport-level kShed is trace 0 and is simply ignored
/// here — it has no message identity to attach to.)
bool is_link_kind(SpanKind k) {
  switch (k) {
    case SpanKind::kChannelSend:
    case SpanKind::kChannelRecv:
    case SpanKind::kCreditStall:
    case SpanKind::kRetransmit:
    case SpanKind::kStallQueued:
    case SpanKind::kBatchFlush:
      return true;
    default:
      return false;
  }
}

/// Per-(from,to) link timeline: transmissions and credit stalls, in time
/// order, plus aux -> earliest receive time for send/recv pairing.
struct LinkLane {
  std::vector<TraceEvent> sends;
  std::vector<TraceEvent> stalls;  ///< kCreditStall (aux = wait us)
  std::unordered_map<std::uint64_t, TimePoint> recv_at;  ///< by frame seq
};

using LinkIndex = std::map<std::pair<HiveId, HiveId>, LinkLane>;

std::string hop_text(HiveId from, HiveId to) {
  return "h" + std::to_string(from) + "->h" + std::to_string(to);
}

/// Decomposes one critical-path hop [t0, t1] (departure-point time to
/// handler-start time). Same-hive hops are pure queueing. Cross-hive hops
/// find the carrying transmission — the earliest frame sent after t0 and
/// received by t1 — and split the interval into serialize (dequeue->wire,
/// net of stalls/losses), stall (credit-gate waits), retransmit (time lost
/// to a transmission that never arrived), wire (send->receive transit) and
/// receiver-side queue (receive->handler start). Missing link spans (ring
/// overwritten) degrade to queue time rather than inventing detail.
void attribute_hop(AssembledTrace& t, HiveId from, HiveId to, TimePoint t0,
                   TimePoint t1, const LinkIndex& links) {
  if (t1 < t0) t1 = t0;
  if (from == to) {
    t.blame.queue_us += ud(t1 - t0);
    return;
  }
  ++t.hops;
  const auto it = links.find({from, to});
  if (it == links.end()) {
    t.blame.queue_us += ud(t1 - t0);
    return;
  }
  const LinkLane& lane = it->second;

  // The carrier is the LATEST send in [t0, t1] whose receive is still by
  // t1: the handler starts right after its own frame arrives, so earlier
  // arrived frames are other traffic, while the message's frame — possibly
  // held back by credit stalls or retransmissions — is the last one in.
  const TraceEvent* carrier = nullptr;
  TimePoint carrier_recv = 0;
  const TraceEvent* lost = nullptr;  // earliest send after t0 that did not
  for (const TraceEvent& send : lane.sends) {
    if (send.at < t0) continue;
    if (send.at > t1) break;
    const auto rx = lane.recv_at.find(send.aux);
    if (rx == lane.recv_at.end() || rx->second > t1) {
      if (lost == nullptr) lost = &send;
      continue;
    }
    carrier = &send;
    carrier_recv = rx->second;
  }
  if (carrier == nullptr) {
    t.blame.queue_us += ud(t1 - t0);
    return;
  }

  const std::uint64_t budget = ud(carrier->at - t0);
  std::uint64_t stall = 0;
  for (const TraceEvent& st : lane.stalls) {
    if (st.at <= t0) continue;
    if (st.at > carrier->at) break;
    TimePoint begin = st.at - static_cast<Duration>(st.aux);
    if (begin < t0) begin = t0;
    const std::uint64_t waited = ud(st.at - begin);
    if (waited == 0) continue;
    stall += waited;
    t.rows.push_back(TraceRow{begin, static_cast<Duration>(waited), from,
                              "stall", "credit stall " + hop_text(from, to),
                              true});
  }
  if (stall > budget) stall = budget;

  std::uint64_t retrans = 0;
  if (lost != nullptr && lost->at < carrier->at) {
    retrans = ud(carrier->at - lost->at);
    if (retrans > budget - stall) retrans = budget - stall;
    if (retrans > 0) {
      t.rows.push_back(TraceRow{lost->at,
                                static_cast<Duration>(carrier->at - lost->at),
                                from, "retransmit",
                                "lost transmission " + hop_text(from, to),
                                true});
    }
  }

  const std::uint64_t serialize = budget - stall - retrans;
  const std::uint64_t wire = ud(carrier_recv - carrier->at);
  const std::uint64_t recv_wait = ud(t1 - carrier_recv);

  if (serialize > 0) {
    t.rows.push_back(TraceRow{t0, static_cast<Duration>(serialize), from,
                              "serialize", "egress " + hop_text(from, to),
                              true});
  }
  t.rows.push_back(TraceRow{
      carrier->at, static_cast<Duration>(wire), from, "wire",
      "wire " + hop_text(from, to) + " (" +
          std::string(frame_kind_name(carrier->type)) + ")",
      true});
  if (recv_wait > 0) {
    t.rows.push_back(TraceRow{carrier_recv, static_cast<Duration>(recv_wait),
                              to, "queue",
                              "recv queue h" + std::to_string(to), true});
  }

  t.blame.serialize_us += serialize;
  t.blame.stall_us += stall;
  t.blame.retransmit_us += retrans;
  t.blame.wire_us += wire;
  t.blame.queue_us += recv_wait;
}

/// Backward critical-path walk: terminal handler end (or shed) -> its
/// handler start -> the dequeue/enqueue pair that delivered the message ->
/// the parent handler at depth-1, recursing until the depth-0 ingress.
/// Every selection takes the latest qualifying span at or before the
/// current point, so the walk is deterministic and robust to unrelated
/// concurrent traffic sharing the ring.
void walk_critical(AssembledTrace& t, std::size_t term,
                   const LinkIndex& links) {
  const std::vector<TraceEvent>& spans = t.spans;
  const auto latest = [&spans](std::size_t before,
                               auto&& pred) -> std::ptrdiff_t {
    for (std::ptrdiff_t j = static_cast<std::ptrdiff_t>(before) - 1; j >= 0;
         --j) {
      if (pred(spans[static_cast<std::size_t>(j)])) return j;
    }
    return -1;
  };

  std::size_t cur = term;
  t.critical.push_back(cur);
  if (spans[term].kind == SpanKind::kHandlerEnd) {
    const TraceEvent& end = spans[term];
    const std::ptrdiff_t j = latest(term, [&end](const TraceEvent& e) {
      return e.kind == SpanKind::kHandlerStart && e.hive == end.hive &&
             e.bee == end.bee && e.depth == end.depth;
    });
    if (j < 0) return;
    t.blame.handler_us += ud(end.at - spans[j].at);
    t.critical.push_back(static_cast<std::size_t>(j));
    cur = static_cast<std::size_t>(j);
  }

  while (true) {
    const TraceEvent ev = spans[cur];  // copy: spans is stable but be safe
    if (ev.kind == SpanKind::kIngress) break;
    if (ev.depth == 0) {
      // Delivered straight from the ingress (possibly relayed cross-hive
      // without an emission hop).
      const std::ptrdiff_t j = latest(cur, [](const TraceEvent& e) {
        return e.kind == SpanKind::kIngress;
      });
      if (j < 0) break;
      attribute_hop(t, spans[j].hive, ev.hive, spans[j].at, ev.at, links);
      t.critical.push_back(static_cast<std::size_t>(j));
      break;
    }
    // The dequeue that routed this delivery (on the emitting hive).
    const std::ptrdiff_t deq = latest(cur, [&ev](const TraceEvent& e) {
      return e.kind == SpanKind::kDequeue && e.depth == ev.depth &&
             e.type == ev.type;
    });
    if (deq < 0) break;
    attribute_hop(t, spans[deq].hive, ev.hive, spans[deq].at, ev.at, links);
    t.critical.push_back(static_cast<std::size_t>(deq));
    // The matching enqueue (same emitting hive + bee): the outbox wait
    // between them is queue time.
    const TraceEvent& dq = spans[deq];
    const std::ptrdiff_t enq =
        latest(static_cast<std::size_t>(deq), [&dq](const TraceEvent& e) {
          return e.kind == SpanKind::kEnqueue && e.depth == dq.depth &&
                 e.type == dq.type && e.hive == dq.hive && e.bee == dq.bee;
        });
    if (enq < 0) break;
    t.blame.queue_us += ud(dq.at - spans[enq].at);
    t.critical.push_back(static_cast<std::size_t>(enq));
    // The parent handler that emitted it, one causal level up.
    const TraceEvent& eq = spans[enq];
    const std::ptrdiff_t pend =
        latest(static_cast<std::size_t>(enq) + 1, [&eq](const TraceEvent& e) {
          return e.kind == SpanKind::kHandlerEnd && e.depth == eq.depth - 1 &&
                 e.hive == eq.hive && e.bee == eq.bee;
        });
    if (pend < 0) break;
    t.critical.push_back(static_cast<std::size_t>(pend));
    const TraceEvent& pe = spans[pend];
    const std::ptrdiff_t pstart =
        latest(static_cast<std::size_t>(pend), [&pe](const TraceEvent& e) {
          return e.kind == SpanKind::kHandlerStart && e.depth == pe.depth &&
                 e.hive == pe.hive && e.bee == pe.bee;
        });
    if (pstart < 0) break;
    t.blame.handler_us += ud(pe.at - spans[pstart].at);
    t.critical.push_back(static_cast<std::size_t>(pstart));
    cur = static_cast<std::size_t>(pstart);
  }
}

/// Pairs the trace's own spans into waterfall rows (the hop decomposition
/// rows were already appended by attribute_hop).
void build_rows(AssembledTrace& t) {
  const std::set<std::size_t> on_path(t.critical.begin(), t.critical.end());
  std::map<std::pair<HiveId, BeeId>, std::size_t> open_handlers;
  std::map<std::tuple<HiveId, BeeId, std::uint32_t, MsgTypeId>, std::size_t>
      open_queues;
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const TraceEvent& e = t.spans[i];
    const bool crit = on_path.count(i) > 0;
    switch (e.kind) {
      case SpanKind::kHandlerStart:
        open_handlers[{e.hive, e.bee}] = i;
        break;
      case SpanKind::kHandlerEnd: {
        const auto it = open_handlers.find({e.hive, e.bee});
        if (it == open_handlers.end()) break;
        const TraceEvent& start = t.spans[it->second];
        t.rows.push_back(TraceRow{
            start.at, e.at - start.at, e.hive, "handler",
            "handle " + msg_name(start.type) +
                (e.aux2 != 0 ? " FAILED" : ""),
            crit || on_path.count(it->second) > 0});
        open_handlers.erase(it);
        break;
      }
      case SpanKind::kEnqueue:
        open_queues[{e.hive, e.bee, e.depth, e.type}] = i;
        break;
      case SpanKind::kDequeue: {
        const auto it = open_queues.find({e.hive, e.bee, e.depth, e.type});
        if (it == open_queues.end()) break;
        const TraceEvent& enq = t.spans[it->second];
        t.rows.push_back(TraceRow{enq.at, e.at - enq.at, e.hive, "queue",
                                  "queue " + msg_name(e.type),
                                  crit || on_path.count(it->second) > 0});
        open_queues.erase(it);
        break;
      }
      case SpanKind::kIngress:
        t.rows.push_back(TraceRow{e.at, 0, e.hive, "ingress",
                                  "ingress " + msg_name(e.type), crit});
        break;
      case SpanKind::kShed:
        t.rows.push_back(TraceRow{e.at, 0, e.hive, "shed",
                                  "shed " + msg_name(e.type), crit});
        break;
      case SpanKind::kHold:
        t.rows.push_back(TraceRow{e.at, 0, e.hive, "hold",
                                  "held " + msg_name(e.type), crit});
        break;
      default:
        break;  // resolve/migrate/decision markers add noise, not time
    }
  }
  std::sort(t.rows.begin(), t.rows.end(),
            [](const TraceRow& a, const TraceRow& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.dur > b.dur;
            });
}

AssembledTrace assemble_one(std::uint64_t id, std::vector<TraceEvent> spans,
                            const LinkIndex& links) {
  AssembledTrace t;
  t.trace_id = id;
  t.spans = std::move(spans);
  t.root_at = t.spans.front().at;
  for (const TraceEvent& e : t.spans) {
    if (e.kind == SpanKind::kHandlerEnd && e.aux2 != 0) t.failed = true;
    if (e.kind == SpanKind::kShed) t.shed = true;
  }
  std::ptrdiff_t term = -1;
  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(t.spans.size()) - 1;
       i >= 0; --i) {
    const SpanKind k = t.spans[static_cast<std::size_t>(i)].kind;
    if (k == SpanKind::kHandlerEnd || k == SpanKind::kShed) {
      term = i;
      break;
    }
  }
  if (term < 0) {
    // No terminal in view (spans lost or trace still in flight): report
    // the observable span range, with nothing to blame.
    t.e2e = t.spans.back().at - t.root_at;
    build_rows(t);
    return t;
  }
  t.e2e = t.spans[static_cast<std::size_t>(term)].at - t.root_at;
  walk_critical(t, static_cast<std::size_t>(term), links);
  std::reverse(t.critical.begin(), t.critical.end());
  build_rows(t);
  return t;
}

std::string blame_json(const TraceBlame& b) {
  return "{\"queue_us\": " + std::to_string(b.queue_us) +
         ", \"handler_us\": " + std::to_string(b.handler_us) +
         ", \"serialize_us\": " + std::to_string(b.serialize_us) +
         ", \"wire_us\": " + std::to_string(b.wire_us) +
         ", \"retransmit_us\": " + std::to_string(b.retransmit_us) +
         ", \"stall_us\": " + std::to_string(b.stall_us) + "}";
}

}  // namespace

TraceBlame& TraceBlame::operator+=(const TraceBlame& o) {
  queue_us += o.queue_us;
  handler_us += o.handler_us;
  serialize_us += o.serialize_us;
  wire_us += o.wire_us;
  retransmit_us += o.retransmit_us;
  stall_us += o.stall_us;
  return *this;
}

std::vector<AssembledTrace> assemble_traces(std::vector<TraceEvent> events,
                                            std::size_t top_n) {
  // Ring snapshots and tail-retained copies overlap: dedupe by the
  // recorder-local (recorder, seq) identity, then restore global time
  // order. The recorder is the event's hive for every kind except
  // kChannelRecv, which the *receiving* hive records with hive = sender
  // (mirroring the send's fields for pairing) — keying those on `hive`
  // would collide them with the sender's own seq space and erase them.
  const auto recorder_of = [](const TraceEvent& e) -> HiveId {
    return e.kind == SpanKind::kChannelRecv ? static_cast<HiveId>(e.aux2)
                                            : e.hive;
  };
  std::sort(events.begin(), events.end(),
            [&recorder_of](const TraceEvent& a, const TraceEvent& b) {
              const HiveId ra = recorder_of(a), rb = recorder_of(b);
              if (ra != rb) return ra < rb;
              return a.seq < b.seq;
            });
  events.erase(std::unique(events.begin(), events.end(),
                           [&recorder_of](const TraceEvent& a,
                                          const TraceEvent& b) {
                             return recorder_of(a) == recorder_of(b) &&
                                    a.seq == b.seq;
                           }),
               events.end());
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.at != b.at) return a.at < b.at;
                     if (a.hive != b.hive) return a.hive < b.hive;
                     return a.seq < b.seq;
                   });

  LinkIndex links;
  std::map<std::uint64_t, std::vector<TraceEvent>> by_trace;  // ordered
  for (const TraceEvent& ev : events) {
    if (is_link_kind(ev.kind)) {
      LinkLane& lane = links[{ev.hive, static_cast<HiveId>(ev.aux2)}];
      switch (ev.kind) {
        case SpanKind::kChannelSend:
          lane.sends.push_back(ev);
          break;
        case SpanKind::kChannelRecv: {
          const auto [it, inserted] = lane.recv_at.emplace(ev.aux, ev.at);
          if (!inserted && ev.at < it->second) it->second = ev.at;
          break;
        }
        case SpanKind::kCreditStall:
          lane.stalls.push_back(ev);
          break;
        default:
          break;  // kRetransmit/kStallQueued/kBatchFlush: markers only
      }
    } else if (ev.trace_id != 0) {
      by_trace[ev.trace_id].push_back(ev);
    }
  }

  std::vector<AssembledTrace> out;
  out.reserve(by_trace.size());
  for (auto& [id, spans] : by_trace) {
    out.push_back(assemble_one(id, std::move(spans), links));
  }
  std::sort(out.begin(), out.end(),
            [](const AssembledTrace& a, const AssembledTrace& b) {
              if (a.e2e != b.e2e) return a.e2e > b.e2e;
              return a.trace_id < b.trace_id;
            });
  if (out.size() > top_n) out.resize(top_n);
  return out;
}

std::vector<AssembledTrace> assemble_from_recorders(
    const std::vector<const TraceRecorder*>& recorders, std::size_t top_n) {
  std::vector<TraceEvent> all;
  for (const TraceRecorder* rec : recorders) {
    if (rec == nullptr) continue;
    std::vector<TraceEvent> part = rec->events_with_retained();
    all.insert(all.end(), part.begin(), part.end());
  }
  return assemble_traces(std::move(all), top_n);
}

TraceBlame blame_totals(const std::vector<AssembledTrace>& traces) {
  TraceBlame total;
  for (const AssembledTrace& t : traces) total += t.blame;
  return total;
}

std::string traces_json(const std::vector<AssembledTrace>& traces,
                        TimePoint now) {
  std::string out = "{\n  \"at\": " + std::to_string(now) +
                    ",\n  \"count\": " + std::to_string(traces.size()) +
                    ",\n  \"blame_totals\": " +
                    blame_json(blame_totals(traces)) + ",\n  \"traces\": [";
  bool first_t = true;
  for (const AssembledTrace& t : traces) {
    out += first_t ? "\n" : ",\n";
    first_t = false;
    const std::uint64_t attributed = t.blame.total();
    const std::uint64_t e2e = ud(t.e2e);
    out += "    {\"trace_id\": " + std::to_string(t.trace_id) +
           ", \"root_at\": " + std::to_string(t.root_at) +
           ", \"e2e_us\": " + std::to_string(e2e) +
           ", \"shed\": " + (t.shed ? "true" : "false") +
           ", \"failed\": " + (t.failed ? "true" : "false") +
           ", \"hops\": " + std::to_string(t.hops) +
           ", \"spans\": " + std::to_string(t.spans.size()) +
           ",\n     \"blame\": " + blame_json(t.blame) +
           ", \"unattributed_us\": " +
           std::to_string(e2e > attributed ? e2e - attributed : 0) +
           ",\n     \"rows\": [";
    bool first_r = true;
    for (const TraceRow& r : t.rows) {
      out += first_r ? "\n" : ",\n";
      first_r = false;
      out += "       {\"t_us\": " + std::to_string(r.start - t.root_at) +
             ", \"dur_us\": " + std::to_string(r.dur < 0 ? 0 : r.dur) +
             ", \"hive\": " + std::to_string(r.hive) + ", \"kind\": \"" +
             json_escape(r.kind) + "\", \"label\": \"" +
             json_escape(r.label) + "\", \"critical\": " +
             (r.critical ? "true" : "false") + "}";
    }
    out += first_r ? "]}" : "\n     ]}";
  }
  out += first_t ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string blame_summary_text(const std::vector<AssembledTrace>& traces) {
  std::string out = std::to_string(traces.size()) +
                    " assembled trace(s), slowest first\n";
  for (const AssembledTrace& t : traces) {
    const TraceBlame& b = t.blame;
    out += "trace " + std::to_string(t.trace_id) +
           " e2e_us=" + std::to_string(ud(t.e2e)) +
           " hops=" + std::to_string(t.hops) +
           " queue=" + std::to_string(b.queue_us) +
           " handler=" + std::to_string(b.handler_us) +
           " serialize=" + std::to_string(b.serialize_us) +
           " wire=" + std::to_string(b.wire_us) +
           " retransmit=" + std::to_string(b.retransmit_us) +
           " stall=" + std::to_string(b.stall_us) +
           (t.shed ? " SHED" : "") + (t.failed ? " FAILED" : "") + "\n";
  }
  return out;
}

}  // namespace beehive
