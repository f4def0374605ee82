#include "instrument/failure_detector.h"

#include "core/context.h"
#include "msg/registry.h"
#include "util/logging.h"

namespace beehive {

namespace {

/// Per-hive liveness record: last heartbeat time + suspected flag.
struct HiveLiveness {
  static constexpr std::string_view kTypeName = "fd.liveness";
  TimePoint last_seen = 0;
  bool suspected = false;

  void encode(ByteWriter& w) const {
    w.i64(last_seen);
    w.boolean(suspected);
  }
  static HiveLiveness decode(ByteReader& r) {
    HiveLiveness l;
    l.last_seen = r.i64();
    l.suspected = r.boolean();
    return l;
  }
};

}  // namespace

FailureDetectorApp::FailureDetectorApp(
    FailureDetectorConfig config, std::function<void(HiveId)> on_suspect)
    : App("platform.failure_detector"), config_(config) {
  // Sanity-check the timeout against the heartbeat period: anything at or
  // under one period suspects healthy hives between two reports. Clamp to
  // two periods — the tightest setting with any slack for channel delay.
  if (config_.metrics_period > 0 &&
      config_.suspect_after < 2 * config_.metrics_period) {
    BH_WARN << "failure detector: suspect_after (" << config_.suspect_after
            << "us) does not exceed twice the heartbeat period ("
            << config_.metrics_period << "us); clamping to "
            << 2 * config_.metrics_period << "us";
    config_.suspect_after = 2 * config_.metrics_period;
  }
  config = config_;
  register_metrics_messages();
  MsgTypeRegistry::instance().ensure<HiveSuspected>();
  MsgTypeRegistry::instance().ensure<HiveRecovered>();
  MsgTypeRegistry::instance().ensure<HiveLiveness>();
  const std::string dict(kDict);

  // Heartbeat ingestion: any report refreshes its hive, and a heartbeat
  // from a suspected hive announces the recovery (resumed after a healed
  // partition, a failover, or plain slowness).
  on<LocalMetricsReport>(
      [dict](const LocalMetricsReport&) { return CellSet::whole_dict(dict); },
      [dict](AppContext& ctx, const LocalMetricsReport& report) {
        const std::string key = std::to_string(report.hive);
        bool was_suspected = false;
        TimePoint last_seen = 0;
        if (auto before = ctx.state().get_as<HiveLiveness>(dict, key)) {
          was_suspected = before->suspected;
          last_seen = before->last_seen;
        }
        HiveLiveness liveness;
        liveness.last_seen = ctx.now();
        liveness.suspected = false;
        ctx.state().put_as(dict, key, liveness);
        if (was_suspected) {
          ctx.emit(HiveRecovered{report.hive, ctx.now() - last_seen});
        }
      });

  // Detection sweep.
  every(
      config.check_period,
      [dict](const MessageEnvelope&) { return CellSet::whole_dict(dict); },
      [dict, config, on_suspect](AppContext& ctx, const MessageEnvelope&) {
        struct Suspect {
          HiveId hive;
          HiveLiveness liveness;
        };
        std::vector<Suspect> suspects;
        ctx.state().for_each<HiveLiveness>(
            dict, [&](const std::string& key, const HiveLiveness& liveness) {
              if (liveness.suspected) return;
              if (ctx.now() - liveness.last_seen >= config.suspect_after) {
                suspects.push_back(
                    {static_cast<HiveId>(std::stoul(key)), liveness});
              }
            });
        for (Suspect& s : suspects) {
          s.liveness.suspected = true;
          ctx.state().put_as(dict, std::to_string(s.hive), s.liveness);
          ctx.emit(HiveSuspected{s.hive, s.liveness.last_seen});
          if (on_suspect) on_suspect(s.hive);
        }
      });
}

}  // namespace beehive
