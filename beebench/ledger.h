// The per-request cost ledger: measured hive CPU per request split into
// replayed layer costs and an unexplained residual.
#pragma once

#include <string>
#include <vector>

namespace beebench {

struct LedgerRow {
  std::string layer;         ///< e.g. "apps.map"
  double ns_per_op = 0.0;    ///< replayed cost of one call
  double ops_per_req = 0.0;  ///< calls per request in the live run
  double ns_per_req() const { return ns_per_op * ops_per_req; }
};

struct Ledger {
  double measured_ns_per_req = 0.0;  ///< CPU per request, all hive threads
  std::vector<LedgerRow> rows;

  double explained_ns_per_req() const {
    double sum = 0.0;
    for (const LedgerRow& r : rows) sum += r.ns_per_req();
    return sum;
  }
  /// What the replayed layers do not account for: the dispatch glue,
  /// run-queue hop, framing, timers and everything not replayed. Negative
  /// when the replays cost more in isolation than in the live run.
  double residual_ns_per_req() const {
    return measured_ns_per_req - explained_ns_per_req();
  }
};

}  // namespace beebench
