// Answer check for the te_fig4 workload: the Fig 4c/f outcome of the
// optimized TE run, judged against the decoupled reference run of the same
// seed (the shape claims bench/fig4_te.cpp prints).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace beebench {

struct TEOutcome {
  std::uint64_t flow_mods = 0;   ///< FlowMods the switches applied
  std::uint64_t migrations = 0;  ///< bee migrations executed
  double tail_locality = 0.0;    ///< local share of deliveries, last third
  double tail_kbps = 0.0;        ///< control bandwidth, last third
  double head_kbps = 0.0;        ///< control bandwidth, first third
};

/// Every failed claim, empty when the run has the paper's shape.
/// `hot_flows` is the number of flows above delta (each must be re-routed
/// exactly once).
inline std::vector<std::string> te_shape_failures(
    const TEOutcome& optimized, const TEOutcome& decoupled,
    std::uint64_t hot_flows) {
  std::vector<std::string> failed;
  if (optimized.flow_mods != hot_flows) {
    failed.push_back("FlowMods " + std::to_string(optimized.flow_mods) +
                     " != hot flows " + std::to_string(hot_flows));
  }
  if (optimized.migrations == 0) {
    failed.push_back("optimizer migrated no bees");
  }
  if (optimized.tail_locality < 0.9 * decoupled.tail_locality) {
    failed.push_back("tail locality below 90% of decoupled");
  }
  if (optimized.tail_kbps > 1.5 * decoupled.tail_kbps + 1.0) {
    failed.push_back("tail bandwidth above 1.5x decoupled");
  }
  if (!(optimized.tail_kbps < optimized.head_kbps)) {
    failed.push_back("bandwidth did not decline after migrations");
  }
  return failed;
}

}  // namespace beebench
