// Cluster-wide metrics registry: the pull side of the observability layer.
//
// Every value a scrape reports lives in exactly one cell, owned by the
// component that writes it; the registry keeps no copy of it. The platform
// registers two kinds of series: exposed cells (a hive's routing Counters
// and its queue/handler/e2e HistogramMetrics, the reliable transport's
// Counters) and pull functions evaluated at scrape time (the hive signal
// gauges over Hive::health()'s snapshot, channel and registry-shard
// totals). Callers without a cell of their own (tests, benches) can have
// the registry own one. A scraper (net/http_export.h serves the Prometheus
// text format) and tests can read it at any time, including while hive
// threads run, which is why every cell is an atomic.
//
// Hot-path contract: updating a cell (Counter::inc/bump,
// HistogramMetric::record/bump_at) is O(1) and allocation-free, asserted
// by tests/test_introspection.cpp with a counting operator new. All
// allocation happens at registration time, which runs once at cluster
// construction.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
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

/// A monotonically increasing counter. Single atomic cell; writers may be
/// any thread (hive loops), readers the scrape thread. Relaxed ordering is
/// sufficient: monitoring tolerates staleness, never tearing.
///
/// The cell doubles as a drop-in replacement for the plain uint64_t
/// counters it re-plumbs (Hive::Counters): ++, += and implicit conversion
/// keep every existing call site source-compatible.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }

  /// Single-writer increment: plain load + store instead of an atomic RMW.
  /// Valid only when exactly one thread ever writes this counter (each
  /// hive's Counters are written solely by its loop thread); concurrent
  /// readers still see untorn, monotonic values. Saves the locked-op cost
  /// on the per-message dispatch path.
  void bump() {
    v_.store(v_.load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
  }

  Counter& operator++() {
    inc();
    return *this;
  }
  Counter& operator+=(std::uint64_t n) {
    inc(n);
    return *this;
  }
  operator std::uint64_t() const { return get(); }  // NOLINT: by design

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// A scrape-safe histogram sharing LatencyHistogram's bucket geometry
/// (log-bucketed microseconds) but with atomic slots, so a hive thread can
/// record while the exposition thread reads. Both record paths touch three
/// slots with relaxed atomics: O(1), allocation-free.
class HistogramMetric {
 public:
  /// Any-thread record: atomic read-modify-write on each slot.
  void record(Duration v) {
    const std::uint64_t value = v < 0 ? 0 : static_cast<std::uint64_t>(v);
    buckets_[LatencyHistogram::index(value)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

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
  // Registering the same (name, labels) twice returns the same object, so
  // re-created hives (tests constructing clusters in a loop over one
  // registry) keep accumulating instead of colliding.

  Counter& counter(const std::string& name, MetricLabels labels = {},
                   const std::string& help = "");
  HistogramMetric& histogram(const std::string& name,
                             MetricLabels labels = {},
                             const std::string& help = "");

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
    Counter* counter = nullptr;       // kCounter (owned or exposed)
    HistogramMetric* histogram = nullptr;  // kHistogram (owned or exposed)
    std::function<double()> fn;       // kFn
  };

  /// Finds the entry for (name, labels), or nullptr. Throws
  /// std::logic_error when the pair exists with a different kind — e.g.
  /// counter("x") after histogram("x") — instead of handing back a
  /// reference into the wrong cell (a null dereference waiting to happen).
  Entry* find_locked(const std::string& name, const MetricLabels& labels,
                     Kind kind);

  mutable std::mutex mutex_;
  // Deques: stable addresses for handed-out references as entries grow.
  std::deque<Counter> counters_;
  std::deque<HistogramMetric> histograms_;
  std::vector<Entry> entries_;
};

}  // namespace beehive
