// Hive-level signals, declared once (DESIGN.md §9).
//
// Every scalar a hive reports about itself — queue pressure, overload
// state, profiled cost, latency, sizes — is one field of HiveSignals and
// one row of kHiveSignals. The row carries everything a view needs: the
// JSON key both /health.json and /status.json use, the Prometheus gauge
// family (empty when the signal is not exported as a gauge), the help text
// and a kind that fixes the wire encoding and the JSON format. The metrics
// report codec, the status row codec, the hive's gauges, both JSON views
// and the flight-recorder text all loop over the table, so a new signal is
// one field, one row, and the line in Hive::report_metrics that computes
// it.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>

#include "util/bytes.h"

namespace beehive {

/// One hive's signals as of its latest metrics report. Every field is a
/// double so one member-pointer type spans the table; counts stay exact up
/// to 2^53.
struct HiveSignals {
  double pressure = 0.0;
  double runq_depth = 0.0;
  double runq_hwm = 0.0;
  double drained_window = 0.0;
  double egress_hwm = 0.0;
  double queue_depth = 0.0;
  double cost_us = 0.0;
  double shed_total = 0.0;
  double shed_per_s = 0.0;
  double stalled = 0.0;
  double credits = -1.0;
  double degraded = 0.0;
  double handler_p99_us = 0.0;
  double retransmit_rate = 0.0;
  double partitions_active = 0.0;
  double migration_aborts = 0.0;
  double bees = 0.0;
  double cells = 0.0;
};

enum class SignalKind : std::uint8_t {
  kCount,   ///< non-negative integer: varint on the wire, integer in JSON
  kSigned,  ///< integer, may be negative: zigzag varint, integer in JSON
  kRatio,   ///< real number: f64 on the wire, four decimals in JSON
  kFlag,    ///< 0 or 1: one byte on the wire, true/false in JSON
};

struct HiveSignal {
  double HiveSignals::* field;
  std::string_view key;     ///< JSON key in /health.json and /status.json
  std::string_view family;  ///< Prometheus gauge family; empty = none
  std::string_view help;
  SignalKind kind;
};

inline constexpr HiveSignal kHiveSignals[] = {
    {&HiveSignals::pressure, "pressure", "beehive_pressure",
     "Queue-pressure score in [0,1): backlog / (backlog + drained + 1)",
     SignalKind::kRatio},
    {&HiveSignals::runq_depth, "runq_depth", "beehive_runq_depth",
     "Run-queue tasks pending for this hive at report time",
     SignalKind::kCount},
    {&HiveSignals::runq_hwm, "runq_hwm", "beehive_runq_hwm",
     "High-watermark of run-queue depth over the last metrics window "
     "(resets each report)",
     SignalKind::kCount},
    {&HiveSignals::drained_window, "drained_window", "",
     "Run-queue tasks executed over the last metrics window",
     SignalKind::kCount},
    {&HiveSignals::egress_hwm, "egress_hwm", "beehive_egress_pending_hwm",
     "High-watermark of frames pending in egress buffers this window",
     SignalKind::kCount},
    {&HiveSignals::queue_depth, "queue_depth", "beehive_queue_depth",
     "Messages held behind transfer fences at report time",
     SignalKind::kCount},
    {&HiveSignals::cost_us, "cost_us_window", "",
     "Profiler estimate of handler CPU microseconds over the last window",
     SignalKind::kCount},
    {&HiveSignals::shed_total, "shed_total", "",
     "Messages and frames shed by overload policies (lifetime)",
     SignalKind::kCount},
    {&HiveSignals::shed_per_s, "shed_per_s", "",
     "Sheds per second over the last metrics window", SignalKind::kRatio},
    {&HiveSignals::stalled, "stalled", "beehive_link_stalled_frames",
     "Outbound frames waiting for link credit at report time",
     SignalKind::kCount},
    {&HiveSignals::credits, "credits", "beehive_link_credits",
     "Smallest remaining credit across outbound links (-1 = unlimited)",
     SignalKind::kSigned},
    {&HiveSignals::degraded, "degraded", "beehive_degraded",
     "1 while the hive advertises its degraded credit window",
     SignalKind::kFlag},
    {&HiveSignals::handler_p99_us, "handler_p99_us", "",
     "Handler duration p99 over the last window (microseconds)",
     SignalKind::kCount},
    {&HiveSignals::retransmit_rate, "retransmit_rate", "",
     "Reliable-transport retransmits per data frame (lifetime)",
     SignalKind::kRatio},
    {&HiveSignals::partitions_active, "partitions_active",
     "beehive_partitions_active",
     "Partitions currently injected by the fault plan", SignalKind::kCount},
    {&HiveSignals::migration_aborts, "migration_aborts", "",
     "Migrations abandoned after the retry cap (lifetime)",
     SignalKind::kCount},
    {&HiveSignals::bees, "bees", "beehive_bees", "Live bees on this hive",
     SignalKind::kCount},
    {&HiveSignals::cells, "cells", "beehive_cells",
     "Cells owned by local bees", SignalKind::kCount},
};

inline constexpr std::size_t kHiveSignalCount = std::size(kHiveSignals);

// A field without a row (or a row too many) breaks the build here.
static_assert(sizeof(HiveSignals) == kHiveSignalCount * sizeof(double),
              "every HiveSignals field needs exactly one kHiveSignals row");

/// Wire codec: one value per row, in table order, encoded by its kind.
void encode_signals(ByteWriter& w, const HiveSignals& s);
HiveSignals decode_signals(ByteReader& r);

/// One value as its kind renders it in JSON and in the text view.
std::string format_signal(SignalKind kind, double v);

/// Appends `, "key": value` for every row (the hive rows of both JSON
/// views).
void append_signals_json(std::string& out, const HiveSignals& s);

/// Appends ` key=value` for every row (flight-recorder text).
void append_signals_text(std::string& out, const HiveSignals& s);

}  // namespace beehive
