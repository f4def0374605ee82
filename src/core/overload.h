// Overload-control policy shared by the two enforcement points of the
// backpressure layer (DESIGN.md §10):
//
//   * the reliable transport's per-link credit gate, which decides what to
//     do with outbound frames once the stalled queue overflows, and
//   * a bee's bounded mailbox, which decides what to do with a newly held
//     message once the holdback reaches the app's mailbox limit.
//
// Control traffic is exempt everywhere: platform frames (merge, migration,
// replication) are never shed at the link, and platform-typed messages
// ("platform.*" / "stats.*") are never shed from a mailbox — the priority
// lane is the same two-lane split the run queues use for immediate vs.
// timed work, applied to retention instead of ordering.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace beehive {

enum class OverloadPolicy : std::uint8_t {
  /// Never drop: queues keep growing locally while the saturation signal
  /// (Hive::overloaded()) tells upstream admission control to stop
  /// producing. Zero loss; bounded only with a cooperating producer.
  kBlockSender,
  /// Drop the newly arriving message/frame once the bound is hit (tail
  /// drop). Freshest data is lost first; the backlog keeps its head.
  kShedNewest,
  /// Drop the oldest queued message/frame to admit the new one (head
  /// drop). The backlog stays fresh; stale work is lost first.
  kShedOldest,
  /// Two lanes: priority (platform/control) traffic is always retained,
  /// the non-priority lane sheds newest beyond the bound.
  kPriorityLanes,
};

constexpr std::string_view to_string(OverloadPolicy p) {
  switch (p) {
    case OverloadPolicy::kBlockSender: return "block";
    case OverloadPolicy::kShedNewest: return "shed-newest";
    case OverloadPolicy::kShedOldest: return "shed-oldest";
    case OverloadPolicy::kPriorityLanes: return "priority";
  }
  return "?";
}

inline std::optional<OverloadPolicy> overload_policy_from_string(
    std::string_view s) {
  if (s == "block") return OverloadPolicy::kBlockSender;
  if (s == "shed-newest") return OverloadPolicy::kShedNewest;
  if (s == "shed-oldest") return OverloadPolicy::kShedOldest;
  if (s == "priority") return OverloadPolicy::kPriorityLanes;
  return std::nullopt;
}

/// Per-app mailbox bound. Unbounded by default — enabling it costs nothing
/// on the dispatch fast path (the bound is only consulted on the hold
/// path, which steady-state traffic never takes).
struct OverloadConfig {
  bool bounded = false;
  /// Maximum held-back messages per bee before `policy` applies.
  std::size_t mailbox_limit = 1024;
  OverloadPolicy policy = OverloadPolicy::kBlockSender;
};

}  // namespace beehive
