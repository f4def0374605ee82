#include "placement/strategy.h"

#include <algorithm>

namespace beehive {

std::vector<MigrationDecision> PlacementStrategy::decide_explained(
    const ClusterView& view, std::vector<PlacementDecision>* log) {
  std::vector<MigrationDecision> decisions = decide(view);
  if (log != nullptr) {
    for (const MigrationDecision& d : decisions) {
      PlacementDecision rec;
      rec.bee = d.bee;
      rec.to = d.to;
      rec.accepted = true;
      rec.reason = std::string(name());
      for (const BeeView& bee : view.bees) {
        if (bee.bee != d.bee) continue;
        rec.from = bee.hive;
        rec.msgs_total = bee.msgs_in;
        rec.inbound.assign(bee.inbound_by_hive.begin(),
                           bee.inbound_by_hive.end());
        if (auto it = bee.inbound_by_hive.find(d.to);
            it != bee.inbound_by_hive.end()) {
          rec.msgs_from_target = it->second;
        }
        break;
      }
      log->push_back(std::move(rec));
    }
  }
  return decisions;
}

std::vector<MigrationDecision> GreedyFollowSources::decide(
    const ClusterView& view) {
  return decide_explained(view, nullptr);
}

std::vector<MigrationDecision> GreedyFollowSources::decide_explained(
    const ClusterView& view, std::vector<PlacementDecision>* log) {
  std::vector<MigrationDecision> decisions;
  // Tentative occupancy so one round's decisions respect capacity jointly.
  std::map<HiveId, std::uint64_t> occupancy = view.hive_cells;

  for (const BeeView& bee : view.bees) {
    if (bee.pinned) continue;
    // Incremental rounds re-score only the dirty set. A clean bee has no
    // window traffic (msgs_in == 0 ⇒ total == 0), so the full round would
    // have skipped it below anyway — same moves, less scoring.
    if (view.mode == RoundMode::kIncremental && !bee.dirty) continue;
    if (bee.msgs_in < config_.min_messages) continue;

    std::uint64_t total = 0;
    HiveId best_hive = bee.hive;
    std::uint64_t best_count = 0;
    for (const auto& [hive, count] : bee.inbound_by_hive) {
      total += count;
      if (count > best_count) {
        best_count = count;
        best_hive = hive;
      }
    }
    if (total == 0) continue;

    // The explained record: every bee that cleared the noise floor and
    // had traffic gets one, accepted or not.
    PlacementDecision rec;
    rec.bee = bee.bee;
    rec.from = bee.hive;
    rec.to = best_hive;
    rec.msgs_total = total;
    rec.msgs_from_target = best_count;
    rec.score = static_cast<double>(best_count) / static_cast<double>(total);
    rec.inbound.assign(bee.inbound_by_hive.begin(),
                       bee.inbound_by_hive.end());
    auto reject = [&](const char* why) {
      if (log != nullptr) {
        rec.reason = why;
        log->push_back(std::move(rec));
      }
    };

    if (best_hive == bee.hive) {
      reject("local_majority");
      continue;
    }
    if (static_cast<double>(best_count) <
        config_.majority_fraction * static_cast<double>(total)) {
      reject("no_majority");
      continue;
    }
    if (occupancy[best_hive] + bee.cells > config_.hive_cell_capacity) {
      reject("capacity");  // H2 lacks capacity (paper's constraint).
      continue;
    }
    occupancy[best_hive] += bee.cells;
    if (occupancy[bee.hive] >= bee.cells) occupancy[bee.hive] -= bee.cells;
    decisions.push_back({bee.bee, best_hive});
    if (log != nullptr) {
      rec.accepted = true;
      rec.reason = "majority";
      log->push_back(std::move(rec));
    }
  }
  return decisions;
}

std::vector<MigrationDecision> CostPressureStrategy::decide(
    const ClusterView& view) {
  return decide_explained(view, nullptr);
}

std::vector<MigrationDecision> CostPressureStrategy::decide_explained(
    const ClusterView& view, std::vector<PlacementDecision>* log) {
  std::vector<MigrationDecision> decisions;
  std::map<HiveId, std::uint64_t> occupancy = view.hive_cells;
  const auto pressure_of = [&](HiveId h) {
    auto it = view.hive_pressure.find(h);
    return it == view.hive_pressure.end() ? 0.0 : it->second;
  };

  // Rank every movable bee by measured weight x (1 + source pressure):
  // the costliest bees on the most pressured hives are considered first,
  // so the per-round move cap spends itself where it relieves most.
  struct Candidate {
    const BeeView* bee;
    const char* signal;
    double rank;
  };
  std::vector<Candidate> candidates;
  for (const BeeView& bee : view.bees) {
    if (bee.pinned) continue;
    // Clean bees carry neither messages nor cost this window: their rank
    // would be 0 and their total 0, so skipping them in incremental mode
    // changes nothing but the scoring work.
    if (view.mode == RoundMode::kIncremental && !bee.dirty) continue;
    if (bee.msgs_in < config_.min_messages) continue;
    const bool measured = bee.cost_us > 0;
    const std::uint64_t weight = measured ? bee.cost_us : bee.msgs_in;
    candidates.push_back(
        {&bee, measured ? "cost" : "msgs",
         static_cast<double>(weight) * (1.0 + pressure_of(bee.hive))});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.rank != b.rank) return a.rank > b.rank;
              return a.bee->bee < b.bee->bee;
            });

  for (const Candidate& c : candidates) {
    if (decisions.size() >= config_.max_moves) break;
    const BeeView& bee = *c.bee;

    // Target selection is still the paper's majority-source rule — cost
    // and pressure decide *which* bees move and *whether* the move is
    // worth it, locality decides *where to*.
    std::uint64_t total = 0;
    HiveId best_hive = bee.hive;
    std::uint64_t best_count = 0;
    for (const auto& [hive, count] : bee.inbound_by_hive) {
      total += count;
      if (count > best_count) {
        best_count = count;
        best_hive = hive;
      }
    }
    if (total == 0) continue;

    PlacementDecision rec;
    rec.bee = bee.bee;
    rec.from = bee.hive;
    rec.to = best_hive;
    rec.msgs_total = total;
    rec.msgs_from_target = best_count;
    rec.score = c.rank;
    rec.signal = c.signal;
    rec.cost_us = bee.cost_us;
    rec.pressure_from = pressure_of(bee.hive);
    rec.pressure_to = pressure_of(best_hive);
    rec.inbound.assign(bee.inbound_by_hive.begin(),
                       bee.inbound_by_hive.end());
    auto reject = [&](const char* why) {
      if (log != nullptr) {
        rec.reason = why;
        log->push_back(std::move(rec));
      }
    };

    if (best_hive == bee.hive) {
      reject("local_majority");
      continue;
    }
    if (static_cast<double>(best_count) <
        config_.majority_fraction * static_cast<double>(total)) {
      reject("no_majority");
      continue;
    }
    if (occupancy[best_hive] + bee.cells > config_.hive_cell_capacity) {
      reject("capacity");
      continue;
    }
    if (rec.pressure_to > rec.pressure_from + config_.pressure_slack) {
      // Moving onto a hive already drowning would trade locality for a
      // longer queue — the one trade this strategy exists to refuse.
      reject("pressure_inverted");
      continue;
    }
    occupancy[best_hive] += bee.cells;
    if (occupancy[bee.hive] >= bee.cells) occupancy[bee.hive] -= bee.cells;
    decisions.push_back({bee.bee, best_hive});
    if (log != nullptr) {
      rec.accepted = true;
      rec.reason = "majority";
      log->push_back(std::move(rec));
    }
  }
  return decisions;
}

std::vector<MigrationDecision> LoadBalanceStrategy::decide(
    const ClusterView& view) {
  std::vector<MigrationDecision> decisions;
  if (view.n_hives < 2 || view.bees.empty()) return decisions;

  // Current per-hive load (messages processed this window) and occupancy.
  std::map<HiveId, std::uint64_t> load;
  std::map<HiveId, std::uint64_t> occupancy = view.hive_cells;
  for (HiveId h = 0; h < view.n_hives; ++h) load[h];  // ensure all present
  for (const BeeView& bee : view.bees) load[bee.hive] += bee.msgs_in;

  std::uint64_t total = 0;
  for (const auto& [_, l] : load) total += l;
  const double mean =
      static_cast<double>(total) / static_cast<double>(view.n_hives);
  if (mean <= 0.0) return decisions;
  const double threshold = config_.overload_factor * mean;

  // Busiest movable bees first: moving them rebalances fastest.
  std::vector<const BeeView*> candidates;
  for (const BeeView& bee : view.bees) {
    if (bee.pinned) continue;
    if (view.mode == RoundMode::kIncremental && !bee.dirty) continue;
    // A zero-traffic bee can never improve the imbalance — moving it is
    // pure churn (and would make incremental rounds diverge from full
    // ones when min_messages is 0).
    if (bee.msgs_in == 0) continue;
    if (bee.msgs_in >= config_.min_messages) candidates.push_back(&bee);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const BeeView* a, const BeeView* b) {
              if (a->msgs_in != b->msgs_in) return a->msgs_in > b->msgs_in;
              return a->bee < b->bee;
            });

  for (const BeeView* bee : candidates) {
    if (decisions.size() >= config_.max_moves) break;
    if (static_cast<double>(load[bee->hive]) <= threshold) continue;
    // Least-loaded target with room; prefer a source hive on ties.
    HiveId best = bee->hive;
    for (HiveId h = 0; h < view.n_hives; ++h) {
      if (h == bee->hive) continue;
      if (occupancy[h] + bee->cells > config_.hive_cell_capacity) continue;
      if (best == bee->hive || load[h] < load[best] ||
          (load[h] == load[best] &&
           bee->inbound_by_hive.contains(h) &&
           !bee->inbound_by_hive.contains(best))) {
        best = h;
      }
    }
    if (best == bee->hive) continue;
    // Only move if it actually improves the imbalance.
    if (load[best] + bee->msgs_in >= load[bee->hive]) continue;
    load[bee->hive] -= bee->msgs_in;
    load[best] += bee->msgs_in;
    occupancy[best] += bee->cells;
    if (occupancy[bee->hive] >= bee->cells) occupancy[bee->hive] -= bee->cells;
    decisions.push_back({bee->bee, best});
  }
  return decisions;
}

std::vector<MigrationDecision> RandomStrategy::decide(
    const ClusterView& view) {
  std::vector<MigrationDecision> decisions;
  if (view.n_hives < 2) return decisions;
  for (const BeeView& bee : view.bees) {
    if (bee.pinned) continue;
    if (rng_.next_double() >= move_fraction_) continue;
    auto to = static_cast<HiveId>(rng_.next_below(view.n_hives));
    if (to == bee.hive) continue;
    decisions.push_back({bee.bee, to});
  }
  return decisions;
}

}  // namespace beehive
