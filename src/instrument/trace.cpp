#include "instrument/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "msg/registry.h"
#include "util/logging.h"

namespace beehive {

namespace {

/// Chrome trace pid for the synthetic "control channel" process; hive pids
/// start at 0, so keep the channel process far away.
constexpr std::uint64_t kChannelPid = 1u << 20;

/// Chrome-trace tid for a bee track. Bee ids are 64-bit but trace viewers
/// want small ints; the per-hive counter is unique within a hive's process
/// and the home hive disambiguates foreign bees.
std::uint64_t bee_tid(BeeId bee) {
  if (bee == kNoBee) return 0;
  return static_cast<std::uint64_t>(bee_counter(bee)) +
         (static_cast<std::uint64_t>(bee_home_hive(bee)) << 24);
}

std::uint64_t channel_tid(HiveId from, std::uint64_t to) {
  return (static_cast<std::uint64_t>(from) << 16) | (to & 0xffff);
}

void append_event(std::string& out, bool& first, const std::string& body) {
  if (!first) out += ",\n";
  first = false;
  out += "  ";
  out += body;
}

std::string common_args(const TraceEvent& e) {
  std::string args = "\"trace\":" + std::to_string(e.trace_id) +
                     ",\"depth\":" + std::to_string(e.depth);
  if (e.type != 0) {
    args += ",\"msg\":\"" +
            json_escape(MsgTypeRegistry::instance().name_of(e.type)) + "\"";
  }
  return args;
}

}  // namespace

std::string_view to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kIngress: return "ingress";
    case SpanKind::kEnqueue: return "enqueue";
    case SpanKind::kDequeue: return "dequeue";
    case SpanKind::kRegistryResolve: return "registry_resolve";
    case SpanKind::kHandlerStart: return "handler_start";
    case SpanKind::kHandlerEnd: return "handler_end";
    case SpanKind::kHold: return "hold";
    case SpanKind::kChannelSend: return "channel_send";
    case SpanKind::kChannelRecv: return "channel_recv";
    case SpanKind::kMigrateStart: return "migrate_start";
    case SpanKind::kMigrateIn: return "migrate_in";
    case SpanKind::kMigrateOut: return "migrate_out";
    case SpanKind::kDecision: return "decision";
    case SpanKind::kCreditStall: return "credit_stall";
    case SpanKind::kRetransmit: return "retransmit";
    case SpanKind::kStallQueued: return "stall_queued";
    case SpanKind::kShed: return "shed";
    case SpanKind::kBatchFlush: return "batch_flush";
  }
  return "?";
}

std::string_view frame_kind_name(std::uint32_t kind) {
  switch (kind) {
    case 1: return "app_msg";
    case 2: return "batch";
    case 3: return "merge_cmd";
    case 4: return "migrate_xfer";
    case 5: return "migrate_ack";
    case 6: return "migration_order";
    case 7: return "replica_txn";
    case 8: return "replica_snapshot";
    case 9: return "reliable";
    case 10: return "ack";
  }
  return "frame";
}

namespace {
/// Smallest power of two >= n: the ring is mask-indexed so the record()
/// hot path pays two ANDs instead of two integer divisions.
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

TraceRecorder::TraceRecorder(std::size_t capacity)
    : ring_(round_up_pow2(capacity == 0 ? 1 : capacity)),
      mask_(ring_.size() - 1) {}

void TraceRecorder::clear() {
  head_ = 0;
  size_ = 0;
  dropped_.store(0, std::memory_order_relaxed);
  slots_used_ = 0;
  tail_rejected_.store(0, std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(head_ + i) & mask_]);
  }
  return out;
}

void TraceRecorder::configure_tail(const TailSamplerConfig& config) {
  tail_ = config;
  if (tail_.max_traces == 0) tail_.max_traces = 1;
  if (tail_.max_spans_per_trace == 0) tail_.max_spans_per_trace = 1;
  slots_used_ = 0;
  if (tail_.enabled) {
    slots_.assign(tail_.max_traces, RetainedTrace{});
    slot_events_.assign(tail_.max_traces * tail_.max_spans_per_trace,
                        TraceEvent{});
  } else {
    slots_.clear();
    slots_.shrink_to_fit();
    slot_events_.clear();
    slot_events_.shrink_to_fit();
  }
}

void TraceRecorder::retain_trace(std::uint64_t trace_id, Duration e2e,
                                 bool errored) {
  // Fan-out traces reach a terminal more than once; refresh the existing
  // slot (keeping the worst e2e) so late spans survive too.
  std::size_t slot = slots_used_;
  for (std::size_t i = 0; i < slots_used_; ++i) {
    if (slots_[i].trace_id == trace_id) {
      slot = i;
      break;
    }
  }
  if (slot == slots_used_) {
    if (slots_used_ < tail_.max_traces) {
      ++slots_used_;
    } else {
      // Budget contest: evict the least-slow retained trace iff the
      // newcomer is strictly slower; the loser counts as rejected.
      std::size_t min_i = 0;
      for (std::size_t i = 1; i < slots_.size(); ++i) {
        if (slots_[i].e2e < slots_[min_i].e2e) min_i = i;
      }
      tail_rejected_.fetch_add(1, std::memory_order_relaxed);
      if (slots_[min_i].e2e >= e2e) return;
      slot = min_i;
    }
    slots_[slot] = RetainedTrace{};
    slots_[slot].trace_id = trace_id;
  }

  RetainedTrace& rt = slots_[slot];
  if (e2e > rt.e2e) rt.e2e = e2e;
  rt.errored = rt.errored || errored;
  rt.count = 0;
  TraceEvent* dst = slot_events_.data() + slot * tail_.max_spans_per_trace;
  for (std::size_t i = 0; i < size_; ++i) {
    const TraceEvent& ev = ring_[(head_ + i) & mask_];
    if (ev.trace_id != trace_id) continue;
    if (rt.count >= tail_.max_spans_per_trace) break;
    dst[rt.count++] = ev;
  }
}

std::vector<TraceEvent> TraceRecorder::retained_events() const {
  std::vector<TraceEvent> out;
  for (std::size_t s = 0; s < slots_used_; ++s) {
    const TraceEvent* src = slot_events_.data() + s * tail_.max_spans_per_trace;
    out.insert(out.end(), src, src + slots_[s].count);
  }
  return out;
}

std::vector<TraceEvent> TraceRecorder::events_with_retained() const {
  std::vector<TraceEvent> out = events();
  // The ring holds the contiguous seq window [next_seq_ - size_, next_seq_);
  // any retained span below it has been overwritten and must be re-added.
  const std::uint64_t ring_floor = next_seq_ - size_;
  for (const TraceEvent& ev : retained_events()) {
    if (ev.seq < ring_floor) out.push_back(ev);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::vector<TraceEvent> merge_trace_events(
    const std::vector<const TraceRecorder*>& recorders) {
  std::vector<TraceEvent> all;
  for (const TraceRecorder* rec : recorders) {
    if (rec == nullptr) continue;
    std::vector<TraceEvent> part = rec->events();
    all.insert(all.end(), part.begin(), part.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.at != b.at) return a.at < b.at;
                     if (a.hive != b.hive) return a.hive < b.hive;
                     return a.seq < b.seq;
                   });
  return all;
}

std::string to_chrome_trace(const std::vector<TraceEvent>& events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;

  // Metadata: name hive processes and bee/channel tracks.
  std::set<HiveId> hives;
  std::set<std::pair<HiveId, BeeId>> bees;
  std::set<std::pair<HiveId, std::uint64_t>> links;
  for (const TraceEvent& e : events) {
    if (e.kind == SpanKind::kChannelSend || e.kind == SpanKind::kChannelRecv) {
      links.insert({e.hive, e.aux2});
    } else {
      hives.insert(e.hive);
      bees.insert({e.hive, e.bee});
    }
  }
  for (HiveId h : hives) {
    append_event(out, first,
                 "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
                     std::to_string(h) +
                     ",\"tid\":0,\"args\":{\"name\":\"hive " +
                     std::to_string(h) + "\"}}");
  }
  for (const auto& [hive, bee] : bees) {
    std::string label = bee == kNoBee ? "io/platform" : to_string_bee(bee);
    append_event(out, first,
                 "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
                     std::to_string(hive) +
                     ",\"tid\":" + std::to_string(bee_tid(bee)) +
                     ",\"args\":{\"name\":\"" + json_escape(label) + "\"}}");
  }
  if (!links.empty()) {
    append_event(out, first,
                 "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
                     std::to_string(kChannelPid) +
                     ",\"tid\":0,\"args\":{\"name\":\"control channel\"}}");
    for (const auto& [from, to] : links) {
      append_event(
          out, first,
          "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
              std::to_string(kChannelPid) +
              ",\"tid\":" + std::to_string(channel_tid(from, to)) +
              ",\"args\":{\"name\":\"hive " + std::to_string(from) +
              " -> hive " + std::to_string(to) + "\"}}");
    }
  }

  // Handler start/end pairs become complete spans; channel send/recv pairs
  // become spans on the link track; the rest are instants. A hive runs one
  // handler at a time, so the last unmatched start per (hive, bee) pairs
  // with the next end.
  std::map<std::pair<HiveId, BeeId>, TraceEvent> open_handlers;
  std::map<std::uint64_t, TraceEvent> open_frames;  // keyed by frame seq

  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case SpanKind::kHandlerStart:
        open_handlers[{e.hive, e.bee}] = e;
        break;
      case SpanKind::kHandlerEnd: {
        auto it = open_handlers.find({e.hive, e.bee});
        if (it == open_handlers.end()) break;
        const TraceEvent& start = it->second;
        std::string name =
            "handle " +
            std::string(MsgTypeRegistry::instance().name_of(start.type));
        append_event(
            out, first,
            "{\"ph\":\"X\",\"name\":\"" + json_escape(name) +
                "\",\"cat\":\"handler\",\"pid\":" + std::to_string(e.hive) +
                ",\"tid\":" + std::to_string(bee_tid(e.bee)) +
                ",\"ts\":" + std::to_string(start.at) +
                ",\"dur\":" + std::to_string(e.at - start.at) + ",\"args\":{" +
                common_args(start) + ",\"emitted\":" + std::to_string(e.aux) +
                ",\"failed\":" + (e.aux2 != 0 ? "true" : "false") + "}}");
        open_handlers.erase(it);
        break;
      }
      case SpanKind::kChannelSend:
        open_frames[e.aux] = e;
        break;
      case SpanKind::kChannelRecv: {
        auto it = open_frames.find(e.aux);
        if (it == open_frames.end()) break;
        const TraceEvent& send = it->second;
        append_event(
            out, first,
            std::string("{\"ph\":\"X\",\"name\":\"") +
                std::string(frame_kind_name(send.type)) +
                "\",\"cat\":\"channel\",\"pid\":" + std::to_string(kChannelPid) +
                ",\"tid\":" + std::to_string(channel_tid(send.hive, send.aux2)) +
                ",\"ts\":" + std::to_string(send.at) +
                ",\"dur\":" + std::to_string(e.at - send.at) +
                ",\"args\":{\"bytes\":" + std::to_string(send.depth) + "}}");
        open_frames.erase(it);
        break;
      }
      default:
        append_event(
            out, first,
            "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"" +
                std::string(to_string(e.kind)) +
                "\",\"cat\":\"platform\",\"pid\":" + std::to_string(e.hive) +
                ",\"tid\":" + std::to_string(bee_tid(e.bee)) +
                ",\"ts\":" + std::to_string(e.at) + ",\"args\":{" +
                common_args(e) + ",\"aux\":" + std::to_string(e.aux) + "}}");
    }
  }

  out += "\n]}\n";
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string json = to_chrome_trace(events);
  std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size();
}

}  // namespace beehive
