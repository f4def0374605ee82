// Layer replays for the traced run: the workload's own messages and cell
// values pushed through one layer's public calls at a time, timed and
// allocation-counted outside the running cluster.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "core/app.h"
#include "msg/message.h"
#include "state/store.h"
#include "state/txn.h"
#include "stats.h"

namespace beebench {

struct ReplayCost {
  double ns_per_op = 0.0;
  double allocs_per_op = 0.0;
};

/// Runs `op(i)` for i in [0, n) once to warm up, then five timed passes;
/// reports the median pass's ns/op and the allocations of one pass per op.
template <typename Op>
ReplayCost time_ops(std::size_t n, Op&& op) {
  for (std::size_t i = 0; i < n; ++i) op(i);
  std::vector<double> ns;
  std::uint64_t allocs = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const std::uint64_t a0 = allocations();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) op(i);
    const auto t1 = std::chrono::steady_clock::now();
    allocs = allocations() - a0;
    ns.push_back(static_cast<double>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         t1 - t0)
                         .count()) /
                 static_cast<double>(n));
  }
  return {median(ns), static_cast<double>(allocs) / static_cast<double>(n)};
}

/// One workload cell: its key in the app's dictionary and its value bytes.
struct CellValue {
  std::string key;
  beehive::Bytes value;
};

/// The workload's inputs to every replay.
struct ReplayInputs {
  const beehive::App* app = nullptr;
  std::string dict;                 ///< the app's state dictionary
  std::vector<CellValue> cells;     ///< primed values, taken from live bees
  /// Requests the app maps and handles, in generated order; each must map
  /// to one of `cells`.
  std::vector<beehive::MessageEnvelope> requests;
  /// Messages that cross a hive boundary (codec replay).
  std::vector<beehive::MessageEnvelope> wire;
};

struct LayerCosts {
  ReplayCost map, handler, txn_rmw, txn_read, encode, decode, resolve,
      snapshot;
  double value_bytes = 0.0;     ///< mean encoded cell value size
  double envelope_bytes = 0.0;  ///< mean encoded envelope size of `wire`
};

/// Replays Map, handler, codec, registry-client resolve and snapshot.
/// The Txn replays are typed and filled in by replay_txn<T>.
LayerCosts replay_layers(const ReplayInputs& in);

/// Txn read-modify-write (get_as + put_as + commit) and read-only
/// (get_as + commit) on each cell value in turn, under a single-cell access
/// policy and a reused log scratch, as the hive runs handlers.
template <beehive::WireEncodable T>
void replay_txn(const ReplayInputs& in, LayerCosts& out) {
  using namespace beehive;
  std::vector<StateStore> stores(in.cells.size());
  std::vector<CellSet> mapped;
  std::vector<AccessPolicy> policies;
  mapped.reserve(in.cells.size());
  for (std::size_t i = 0; i < in.cells.size(); ++i) {
    stores[i].dict(in.dict).put(in.cells[i].key, in.cells[i].value);
    mapped.push_back(CellSet::single(in.dict, in.cells[i].key));
  }
  for (const CellSet& c : mapped) {
    policies.push_back(AccessPolicy::cells_view(c));
  }
  Txn::Scratch scratch;
  const std::size_t n = in.cells.size();
  out.txn_rmw = time_ops(n * 50, [&](std::size_t i) {
    const std::size_t c = i % n;
    Txn txn(stores[c], &policies[c], &scratch);
    auto v = txn.get_as<T>(in.dict, in.cells[c].key);
    txn.put_as(in.dict, in.cells[c].key, *v);
    txn.commit();
  });
  out.txn_read = time_ops(n * 50, [&](std::size_t i) {
    const std::size_t c = i % n;
    Txn txn(stores[c], &policies[c], &scratch);
    auto v = txn.get_as<T>(in.dict, in.cells[c].key);
    txn.commit();
    if (!v) throw std::logic_error("replay cell vanished");
  });
}

}  // namespace beebench
