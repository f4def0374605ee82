// Cluster-wide metrics registry: the pull side of the observability layer.
//
// The existing instrumentation (BeeMetrics, Hive::Counters, transport and
// channel accounting) is write-only: values accumulate and ship to the
// collector, but nothing outside the platform can *ask* for them. The
// MetricsRegistry turns those counters into named, labelled metrics that a
// scraper (net/http_export.h serves them in Prometheus text format), the
// StatusApp, and tests can read at any time — including while hive threads
// are running, which is why every readable cell here is an atomic.
//
// Hot-path contract: updating a registered metric (Counter::inc,
// Gauge::set, HistogramMetric::record, TimeSeriesRing::push) is O(1) and
// allocation-free — asserted by tests/test_introspection.cpp with a
// counting operator new. All allocation happens at registration time,
// which runs once at cluster construction.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "instrument/histogram.h"
#include "util/bytes.h"
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

/// A gauge: a value that can go up and down (queue depth, partitions
/// active, last-window rate).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    // fetch_add on atomic<double> needs C++20 library support that is
    // uneven; a CAS loop is equivalent and still lock-free on x86/ARM.
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double get() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// A scrape-safe histogram sharing LatencyHistogram's bucket geometry
/// (log-bucketed microseconds) but with atomic slots, so hive threads can
/// record while the exposition thread reads. record() is two integer ops
/// and three relaxed atomic adds — O(1), allocation-free.
class HistogramMetric {
 public:
  void record(Duration v) {
    const std::uint64_t value = v < 0 ? 0 : static_cast<std::uint64_t>(v);
    buckets_[LatencyHistogram::index(value)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Folds a whole (plain) histogram in — used by hives to publish each
  /// report window's distribution without touching the dispatch hot path.
  void merge(const LatencyHistogram& h);

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
  std::array<std::atomic<std::uint64_t>, LatencyHistogram::kBuckets>
      buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Fixed-capacity ring of (timestamp, value) samples: one per reporting
/// window, so the last N windows of any per-hive rate stay queryable after
/// the instantaneous counters have moved on. push() is O(1) and
/// allocation-free after construction; a mutex (uncontended — one writer
/// per ring, pushes once per metrics window) makes snapshots safe from the
/// scrape thread.
///
/// The ring is WireEncodable so the StatusApp can keep one per hive inside
/// a state cell and ship it in StatusReports.
class TimeSeriesRing {
 public:
  static constexpr std::string_view kTypeName = "platform.tsring";
  static constexpr std::size_t kDefaultWindows = 64;

  explicit TimeSeriesRing(std::size_t capacity = kDefaultWindows)
      : samples_(capacity == 0 ? 1 : capacity) {}

  TimeSeriesRing(const TimeSeriesRing& other) { copy_from(other); }
  TimeSeriesRing& operator=(const TimeSeriesRing& other) {
    if (this != &other) copy_from(other);
    return *this;
  }

  struct Sample {
    TimePoint at = 0;
    double value = 0.0;
  };

  void push(TimePoint at, double value) {
    std::lock_guard lock(mutex_);
    samples_[(head_ + size_) % samples_.size()] = Sample{at, value};
    if (size_ < samples_.size()) {
      ++size_;
    } else {
      head_ = (head_ + 1) % samples_.size();
    }
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return size_;
  }
  std::size_t capacity() const { return samples_.size(); }

  /// Samples oldest-first.
  std::vector<Sample> snapshot() const;

  /// Mean value per second over the retained samples: (sum of values) /
  /// (newest.at - oldest.at). 0 with fewer than two samples.
  double rate_per_second() const;

  /// Most recent sample's value (0 when empty).
  double last() const;

  void encode(ByteWriter& w) const;
  static TimeSeriesRing decode(ByteReader& r);

 private:
  void copy_from(const TimeSeriesRing& other);

  mutable std::mutex mutex_;
  std::vector<Sample> samples_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
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
  Gauge& gauge(const std::string& name, MetricLabels labels = {},
               const std::string& help = "");
  HistogramMetric& histogram(const std::string& name,
                             MetricLabels labels = {},
                             const std::string& help = "");
  TimeSeriesRing& ring(const std::string& name, MetricLabels labels = {},
                       std::size_t capacity = TimeSeriesRing::kDefaultWindows);

  /// Re-plumbs an externally owned counter cell (e.g. a Hive::Counters
  /// field) into the exposition without moving it. The cell must outlive
  /// the registry or be unregistered first (clusters own both, in order).
  void expose_counter(const std::string& name, MetricLabels labels,
                      const Counter* cell, const std::string& help = "");

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

  /// The same snapshot as JSON (served at /status.json): metric values
  /// keyed by name{labels}, plus ring series under "series".
  std::string status_json() const;

  /// Number of registered metric series (tests).
  std::size_t series_count() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kFn, kRing };

  struct Entry {
    std::string name;
    MetricLabels labels;
    std::string help;
    Kind kind = Kind::kCounter;
    bool counter_semantics = false;   // for kFn
    Counter* counter = nullptr;       // kCounter (owned or exposed)
    Gauge* gauge = nullptr;           // kGauge
    HistogramMetric* histogram = nullptr;  // kHistogram
    TimeSeriesRing* ring = nullptr;   // kRing
    std::function<double()> fn;       // kFn
  };

  /// Finds the entry for (name, labels), or nullptr. Throws
  /// std::logic_error when the pair exists with a different kind — e.g.
  /// counter("x") after gauge("x") — instead of handing back a reference
  /// into the wrong cell (a null dereference waiting to happen).
  Entry* find_locked(const std::string& name, const MetricLabels& labels,
                     Kind kind);

  mutable std::mutex mutex_;
  // Deques: stable addresses for handed-out references as entries grow.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<HistogramMetric> histograms_;
  std::deque<TimeSeriesRing> rings_;
  std::vector<Entry> entries_;
};

}  // namespace beehive
