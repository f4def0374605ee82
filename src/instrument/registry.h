// Cluster-wide metrics registry: the pull side of the observability layer.
//
// Every value a scrape reports lives in exactly one cell, owned by the
// component that writes it; the registry keeps no copy of it. The platform
// registers two kinds of series: exposed cells (a hive's routing Counters
// and its queue/handler/e2e HistogramMetrics, the reliable transport's
// Counters) and pull functions evaluated at scrape time (the hive signal
// gauges over Hive::health()'s snapshot, the channel totals and the
// registry's stats row). A scraper (net/http_export.h serves the Prometheus
// text format) and tests can read it at any time, including while hive
// threads run, which is why every cell is an atomic.
//
// Hot-path contract: updating a cell (Counter::bump,
// HistogramMetric::bump_at) is O(1) and allocation-free, asserted by
// tests/test_introspection.cpp with a counting operator new. All
// allocation happens at registration time, which runs once at cluster
// construction.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "instrument/histogram.h"
#include "util/types.h"

namespace beehive {

/// One metric's label set, e.g. {{"hive", "3"}}. Order is preserved into
/// the exposition output.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// A monotonically increasing counter cell. Exactly one thread writes it
/// (each hive's Counters and its transport's counters are written solely
/// by the hive's loop thread), so an increment is a plain load + store
/// instead of an atomic read-modify-write; the scrape thread still reads
/// untorn, monotonic values. Relaxed ordering is sufficient: monitoring
/// tolerates staleness, never tearing.
class Counter {
 public:
  void bump(std::uint64_t n = 1) {
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  }
  std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }
  operator std::uint64_t() const { return get(); }  // NOLINT: by design

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// A scrape-safe histogram sharing LatencyHistogram's bucket geometry
/// (log-bucketed microseconds) but with atomic slots, so a hive thread can
/// record while the exposition thread reads. A record touches three slots
/// with relaxed atomics: O(1), allocation-free.
class HistogramMetric {
 public:
  /// Single-writer record with the bucket index precomputed by the caller
  /// (the Counter::bump contract): plain loads and stores instead of
  /// atomic read-modify-writes. Valid only when one thread ever writes the
  /// cell, as a hive's loop thread writes its latency cells.
  void bump_at(std::uint32_t idx, std::uint64_t value) {
    bump(buckets_[idx], 1);
    bump(count_, 1);
    bump(sum_, value);
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count_relaxed(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Snapshot into a plain histogram (quantiles, exposition).
  LatencyHistogram snapshot() const;

 private:
  static void bump(std::atomic<std::uint64_t>& cell, std::uint64_t n) {
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }

  std::array<std::atomic<std::uint64_t>, LatencyHistogram::kBuckets>
      buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Sanitizes a metric or label name to the Prometheus charset
/// [a-zA-Z_:][a-zA-Z0-9_:]* (invalid characters become '_'; a leading
/// digit gets a '_' prefix).
std::string prometheus_sanitize(std::string_view name);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // -- Registration (allocates; call at startup, not on hot paths) --------
  // Registering the same (name, labels) twice re-points the one series, so
  // re-created hives (tests constructing clusters in a loop over one
  // registry) replace their predecessors instead of colliding.

  /// Exposes an externally owned counter cell (e.g. a Hive::Counters
  /// field) without moving it: every scrape reads the cell itself. The
  /// cell must outlive every scrape (a cluster owns both its registry and
  /// the hives whose cells it exposes).
  void expose_counter(const std::string& name, MetricLabels labels,
                      const Counter* cell, const std::string& help = "");

  /// expose_counter for an externally owned histogram cell (a hive's
  /// queue, handler and e2e latency cells).
  void expose_histogram(const std::string& name, MetricLabels labels,
                        const HistogramMetric* cell,
                        const std::string& help = "");

  /// Pull-style metric: `fn` is evaluated at scrape time (for sources with
  /// their own locking, e.g. ChannelMeter totals). `counter_semantics`
  /// picks the TYPE line (counter vs gauge).
  void gauge_fn(const std::string& name, MetricLabels labels,
                std::function<double()> fn, const std::string& help = "",
                bool counter_semantics = false);

  // -- Exposition ---------------------------------------------------------

  /// Prometheus text exposition format 0.0.4: families sorted by name,
  /// with # HELP / # TYPE headers and histograms rendered as cumulative
  /// `_bucket{le=...}` series on power-of-4 bounds.
  std::string prometheus_text() const;

  /// Number of registered metric series (tests).
  std::size_t series_count() const;

 private:
  enum class Kind { kCounter, kHistogram, kFn };

  struct Entry {
    std::string name;
    MetricLabels labels;
    std::string help;
    Kind kind = Kind::kCounter;
    bool counter_semantics = false;   // for kFn
    const Counter* counter = nullptr;          // kCounter
    const HistogramMetric* histogram = nullptr;  // kHistogram
    std::function<double()> fn;       // kFn
  };

  /// Finds the entry for (name, labels), or nullptr. Throws
  /// std::logic_error when the pair exists with a different kind — e.g.
  /// expose_counter("x") after expose_histogram("x") — instead of
  /// re-pointing the series at the wrong kind of cell.
  Entry* find_locked(const std::string& name, const MetricLabels& labels,
                     Kind kind);

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

}  // namespace beehive
