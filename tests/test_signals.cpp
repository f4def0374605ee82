// Tests of the hive-signal table (instrument/signals.h): every signal
// survives both wire codecs, carries one key in both JSON views, reads the
// same in a hive's health snapshot and in its StatusApp row, and the
// /metrics exposition built from the table matches a recorded fixture.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

#include "cluster/sim.h"
#include "instrument/health.h"
#include "instrument/metrics.h"
#include "instrument/signals.h"
#include "instrument/status_app.h"
#include "tests/test_helpers.h"

namespace beehive {
namespace {

using testing::CounterApp;
using testing::CounterQuery;
using testing::Incr;

/// A distinct non-default value per row, exactly representable on the
/// wire for the row's kind.
HiveSignals distinct_signals() {
  HiveSignals s;
  for (std::size_t i = 0; i < kHiveSignalCount; ++i) {
    const HiveSignal& row = kHiveSignals[i];
    double& v = s.*row.field;
    switch (row.kind) {
      case SignalKind::kCount:
        v = 1000.0 + static_cast<double>(i);
        break;
      case SignalKind::kSigned:
        v = -2.0 - static_cast<double>(i);
        break;
      case SignalKind::kRatio:
        v = 0.25 + static_cast<double>(i) / 64.0;
        break;
      case SignalKind::kFlag:
        v = 1.0;
        break;
    }
  }
  return s;
}

void expect_same_signals(const HiveSignals& got, const HiveSignals& want) {
  for (const HiveSignal& row : kHiveSignals) {
    EXPECT_EQ(got.*row.field, want.*row.field) << row.key;
  }
}

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

/// The first hive row of a rendered document: from `{"hive"` to the
/// closing brace (signal values never contain braces).
std::string first_hive_row(const std::string& json) {
  const std::size_t begin = json.find("{\"hive\"");
  const std::size_t end = json.find('}', begin);
  if (begin == std::string::npos || end == std::string::npos) return {};
  return json.substr(begin, end - begin + 1);
}

TEST(HiveSignalsTable, KeysAndFamiliesAreUnique) {
  for (std::size_t i = 0; i < kHiveSignalCount; ++i) {
    for (std::size_t j = i + 1; j < kHiveSignalCount; ++j) {
      EXPECT_NE(kHiveSignals[i].key, kHiveSignals[j].key);
      EXPECT_NE(kHiveSignals[i].field, kHiveSignals[j].field);
      if (!kHiveSignals[i].family.empty()) {
        EXPECT_NE(kHiveSignals[i].family, kHiveSignals[j].family);
      }
    }
    EXPECT_FALSE(kHiveSignals[i].help.empty()) << kHiveSignals[i].key;
  }
}

TEST(HiveSignalsTable, EverySignalSurvivesBothCodecs) {
  const HiveSignals sent = distinct_signals();
  for (const HiveSignal& row : kHiveSignals) {
    EXPECT_NE(sent.*row.field, HiveSignals{}.*row.field) << row.key;
  }

  LocalMetricsReport report;
  report.hive = 3;
  report.signals = sent;
  report.bees.resize(2);
  const auto report_back =
      decode_from_bytes<LocalMetricsReport>(encode_to_bytes(report));
  expect_same_signals(report_back.signals, sent);
  EXPECT_EQ(report_back.bees.size(), 2u);

  HiveStatus status;
  status.hive = 3;
  status.signals = sent;
  status.msgs_window = TimeSeriesRing(4);
  const auto status_back =
      decode_from_bytes<HiveStatus>(encode_to_bytes(status));
  expect_same_signals(status_back.signals, sent);
  EXPECT_EQ(status_back.hive, 3u);
}

TEST(HiveSignalsTable, EachKeyOnceInBothJsonViews) {
  HealthReport health;
  HiveHealth hh;
  hh.hive = 1;
  hh.signals = distinct_signals();
  health.hives = {hh};
  const std::string health_row = first_hive_row(health.to_json());

  StatusReport status;
  HiveStatus hs;
  hs.hive = 1;
  hs.signals = distinct_signals();
  hs.msgs_window = TimeSeriesRing(4);
  status.hives = {hs};
  const std::string status_row = first_hive_row(status.to_json());

  ASSERT_FALSE(health_row.empty());
  ASSERT_FALSE(status_row.empty());
  for (const HiveSignal& row : kHiveSignals) {
    const std::string key = "\"" + std::string(row.key) + "\":";
    EXPECT_EQ(count_of(health_row, key), 1u) << row.key << " in "
                                             << health_row;
    EXPECT_EQ(count_of(status_row, key), 1u) << row.key << " in "
                                             << status_row;
  }
  // The signed kind renders negative, the flag kind as a JSON boolean.
  EXPECT_NE(health_row.find("\"credits\": -"), std::string::npos);
  EXPECT_NE(status_row.find("\"degraded\": true"), std::string::npos);
}

// The fixed scenario behind tests/fixtures/metrics_golden.prom: two
// simulated hives with reliable, credited links and the counter app, three
// report periods of traffic, and a burst just before the last report so
// the pressure and queue gauges read nonzero values.
void run_golden_scenario(SimCluster& sim) {
  sim.start();
  for (int i = 0; i < 50; ++i) {
    const HiveId h = static_cast<HiveId>(i % 2);
    sim.hive(h).inject(MessageEnvelope::make(
        Incr{"k" + std::to_string(i % 5), 1}, 0, kNoBee, h, sim.now()));
    sim.run_for(50 * kMillisecond);
  }
  sim.run_until(3 * kSecond - 10 * kMicrosecond);
  for (int i = 0; i < 30; ++i) {
    sim.hive(1).inject(MessageEnvelope::make(
        CounterQuery{"k" + std::to_string(i % 5)}, 0, kNoBee, 1, sim.now()));
  }
  sim.run_to_idle();
}

ClusterConfig golden_config() {
  ClusterConfig cfg;
  cfg.n_hives = 2;
  cfg.hive.metrics_period = kSecond;
  cfg.hive.timers_until = 3 * kSecond;
  cfg.hive.transport.enabled = true;
  cfg.hive.transport.credit_window = 8;
  return cfg;
}

TEST(HiveSignalsGolden, MetricsTextMatchesFixture) {
  // No StatusApp here: it would pull one hive's reports across the
  // metered channel, and beehive_channel_bytes_total would then count the
  // report's wire size rather than the counter traffic alone.
  AppSet apps;
  apps.emplace<CounterApp>();
  SimCluster sim(golden_config(), apps);
  run_golden_scenario(sim);
  const std::string text = sim.metrics()->prometheus_text();

  const std::string path =
      std::string(BEEHIVE_TEST_FIXTURES) + "/metrics_golden.prom";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << path;
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(text, want.str())
      << "/metrics exposition drifted from " << path;
}

TEST(HiveSignalsAgree, HealthSnapshotAndStatusRowMatch) {
  AppSet apps;
  apps.emplace<CounterApp>();
  apps.emplace<StatusApp>();
  ClusterConfig cfg = golden_config();
  cfg.n_hives = 3;
  cfg.hive.profiler.enabled = true;
  cfg.hive.profiler.sample_every = 1;
  SimCluster sim(cfg, apps);
  run_golden_scenario(sim);

  const AppId status_app = apps.find_by_name("platform.status")->id();
  const Bee* status_bee = nullptr;
  for (const BeeRecord& rec : sim.registry().live_bees()) {
    if (rec.app == status_app) {
      status_bee = sim.hive(rec.hive).find_bee(rec.id);
    }
  }
  ASSERT_NE(status_bee, nullptr);
  const StatusReport status =
      StatusApp::report_from_store(status_bee->store(), sim.now());
  ASSERT_EQ(status.hives.size(), 3u);

  bool any_pressure = false;
  for (const HiveStatus& row : status.hives) {
    const HiveHealth health = sim.hive(row.hive).health();
    expect_same_signals(row.signals, health.signals);
    any_pressure = any_pressure || health.signals.pressure > 0.0;
  }
  EXPECT_TRUE(any_pressure) << "the scenario left no hive under pressure";
}

}  // namespace
}  // namespace beehive
