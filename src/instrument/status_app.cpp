#include "instrument/status_app.h"

#include <algorithm>

#include "core/context.h"
#include "util/logging.h"

namespace beehive {

namespace {

CellSet status_cells() {
  return CellSet{{std::string(StatusApp::kHivesDict), std::string(kAllKeys)},
                 {std::string(StatusApp::kBeesDict), std::string(kAllKeys)},
                 {std::string(StatusApp::kMetaDict), std::string(kAllKeys)}};
}

std::string suspected_key(HiveId hive) {
  return "suspected:" + std::to_string(hive);
}

void append_json_ring(std::string& out, const TimeSeriesRing& ring) {
  out += "[";
  bool first = true;
  for (const TimeSeriesRing::Sample& s : ring.snapshot()) {
    if (!first) out += ", ";
    first = false;
    out += "[" + std::to_string(s.at) + ", " +
           std::to_string(static_cast<std::uint64_t>(s.value)) + "]";
  }
  out += "]";
}

}  // namespace

std::vector<TimeSeriesRing::Sample> TimeSeriesRing::snapshot() const {
  std::vector<Sample> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(samples_[(head_ + i) % samples_.size()]);
  }
  return out;
}

void TimeSeriesRing::encode(ByteWriter& w) const {
  w.varint(samples_.size());
  w.varint(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    const Sample& s = samples_[(head_ + i) % samples_.size()];
    w.i64(s.at);
    w.f64(s.value);
  }
}

TimeSeriesRing TimeSeriesRing::decode(ByteReader& r) {
  const std::uint64_t capacity = r.varint();
  const std::uint64_t n = r.varint();
  if (capacity > kMaxCapacity || n > capacity) {
    throw DecodeError("time-series ring: bad capacity or sample count");
  }
  TimeSeriesRing ring(static_cast<std::size_t>(capacity));
  for (std::uint64_t i = 0; i < n; ++i) {
    const TimePoint at = r.i64();
    ring.push(at, r.f64());
  }
  return ring;
}

StatusApp::StatusApp() : App("platform.status") {
  register_metrics_messages();
  MsgTypeRegistry::instance().ensure<HiveStatus>();
  MsgTypeRegistry::instance().ensure<BeeStatus>();
  MsgTypeRegistry::instance().ensure<HiveSuspected>();

  // Fold: every hive's heartbeat report refreshes its own row and its
  // bees' rows. Whole-dict cells centralize the app on one bee.
  on<LocalMetricsReport>(
      [](const LocalMetricsReport&) { return status_cells(); },
      [](AppContext& ctx, const LocalMetricsReport& report) {
        const std::string hives(kHivesDict);
        const std::string bees(kBeesDict);
        const std::string hive_key = std::to_string(report.hive);

        std::uint64_t window_msgs = 0;
        for (const BeeMetricsSample& s : report.bees) {
          window_msgs += s.msgs_in;
        }

        HiveStatus hs =
            ctx.state().get_as<HiveStatus>(hives, hive_key).value_or(
                HiveStatus{});
        if (hs.at == 0) hs.msgs_window = TimeSeriesRing(kRingWindows);
        hs.hive = report.hive;
        hs.at = report.at;
        hs.e2e_p50_us = report.e2e_latency.p50();
        hs.e2e_p99_us = report.e2e_latency.p99();
        hs.signals = report.signals;
        hs.suspected = ctx.state()
                           .get_as<HiveSuspected>(std::string(kMetaDict),
                                                  suspected_key(report.hive))
                           .has_value();
        hs.msgs_window.push(report.at, static_cast<double>(window_msgs));
        ctx.state().put_as(hives, hive_key, hs);

        for (const BeeMetricsSample& sample : report.bees) {
          const std::string bee_key = std::to_string(sample.bee);
          BeeStatus bs = ctx.state()
                             .get_as<BeeStatus>(bees, bee_key)
                             .value_or(BeeStatus{});
          if (bs.at == 0) {
            bs.msgs_window = TimeSeriesRing(kRingWindows);
          }
          bs.bee = sample.bee;
          bs.app = sample.app;
          bs.app_name = sample.app_name;
          bs.hive = sample.hive;
          bs.at = report.at;
          bs.pinned = sample.pinned;
          bs.cells = sample.cells;
          bs.queue_depth = sample.holdback;
          bs.msgs_in_window = sample.msgs_in;
          bs.cost_us = sample.cost_us;
          bs.handler_p99_us = sample.handler_p99_us;
          bs.msgs_window.push(report.at, static_cast<double>(sample.msgs_in));
          ctx.state().put_as(bees, bee_key, bs);
        }

        // Age out rows for bees that merged away or whose hive stopped
        // reporting; they would otherwise linger forever.
        std::vector<std::string> stale;
        ctx.state().for_each<BeeStatus>(
            bees, [&](const std::string& key, const BeeStatus& bs) {
              if (bs.at + kStaleAfter < report.at) stale.push_back(key);
            });
        for (const std::string& key : stale) ctx.state().erase(bees, key);
      });

  on<HiveSuspected>(
      [](const HiveSuspected&) { return status_cells(); },
      [](AppContext& ctx, const HiveSuspected& m) {
        ctx.state().put_as(std::string(kMetaDict), suspected_key(m.hive), m);
        const std::string hives(kHivesDict);
        const std::string key = std::to_string(m.hive);
        if (auto hs = ctx.state().get_as<HiveStatus>(hives, key)) {
          hs->suspected = true;
          ctx.state().put_as(hives, key, *hs);
        }
      });

  on<HiveRecovered>(
      [](const HiveRecovered&) { return status_cells(); },
      [](AppContext& ctx, const HiveRecovered& m) {
        ctx.state().erase(std::string(kMetaDict), suspected_key(m.hive));
        const std::string hives(kHivesDict);
        const std::string key = std::to_string(m.hive);
        if (auto hs = ctx.state().get_as<HiveStatus>(hives, key)) {
          hs->suspected = false;
          ctx.state().put_as(hives, key, *hs);
        }
      });
}

StatusReport StatusApp::report_from_store(const StateStore& store,
                                          TimePoint at) {
  StatusReport report;
  report.at = at;
  if (const Dict* d = store.find_dict(kHivesDict)) {
    d->for_each_as<HiveStatus>([&report](const std::string&,
                                         const HiveStatus& hs) {
      report.hives.push_back(hs);
    });
  }
  if (const Dict* d = store.find_dict(kBeesDict)) {
    d->for_each_as<BeeStatus>([&report](const std::string&,
                                        const BeeStatus& bs) {
      report.bees.push_back(bs);
    });
  }
  if (const Dict* d = store.find_dict(kMetaDict)) {
    d->for_each_as<HiveSuspected>([&report](const std::string&,
                                            const HiveSuspected& m) {
      report.suspected.push_back(m.hive);
    });
  }
  std::sort(report.hives.begin(), report.hives.end(),
            [](const HiveStatus& a, const HiveStatus& b) {
              return a.hive < b.hive;
            });
  std::sort(report.bees.begin(), report.bees.end(),
            [](const BeeStatus& a, const BeeStatus& b) {
              return a.bee < b.bee;
            });
  std::sort(report.suspected.begin(), report.suspected.end());
  return report;
}

std::string StatusReport::to_json() const {
  std::string out = "{\n  \"at\": " + std::to_string(at) +
                    ",\n  \"hives\": [";
  bool first = true;
  for (const HiveStatus& h : hives) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"hive\": " + std::to_string(h.hive) +
           ", \"at\": " + std::to_string(h.at) +
           ", \"e2e_p50_us\": " + std::to_string(h.e2e_p50_us) +
           ", \"e2e_p99_us\": " + std::to_string(h.e2e_p99_us) +
           ", \"suspected\": " + (h.suspected ? "true" : "false");
    append_signals_json(out, h.signals);
    out += ", \"msgs_window\": ";
    append_json_ring(out, h.msgs_window);
    out += "}";
  }
  out += "\n  ],\n  \"bees\": [";
  first = true;
  for (const BeeStatus& b : bees) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"bee\": " + std::to_string(b.bee) +
           ", \"app\": " + std::to_string(b.app) +
           ", \"app_name\": \"" + json_escape(b.app_name) + "\"" +
           ", \"hive\": " + std::to_string(b.hive) +
           ", \"pinned\": " + (b.pinned ? "true" : "false") +
           ", \"cells\": " + std::to_string(b.cells) +
           ", \"queue_depth\": " + std::to_string(b.queue_depth) +
           ", \"msgs_in_window\": " + std::to_string(b.msgs_in_window) +
           ", \"cost_us\": " + std::to_string(b.cost_us) +
           ", \"handler_p99_us\": " + std::to_string(b.handler_p99_us) +
           ", \"msgs_window\": ";
    append_json_ring(out, b.msgs_window);
    out += "}";
  }
  out += "\n  ],\n  \"suspected\": [";
  first = true;
  for (HiveId h : suspected) {
    if (!first) out += ", ";
    first = false;
    out += std::to_string(h);
  }
  out += "]\n}\n";
  return out;
}

}  // namespace beehive
