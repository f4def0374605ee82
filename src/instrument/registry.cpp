#include "instrument/registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>

namespace beehive {

namespace {

/// Formats a double the way Prometheus expects: integers without a
/// fraction, everything else with enough digits to round-trip.
std::string format_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Escapes HELP text: the exposition format spec escapes backslash and
/// newline there (quotes are legal verbatim in help lines, unlike label
/// values).
std::string escape_help(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Escapes a label value: backslash, double-quote and newline per the
/// exposition format spec.
std::string escape_label_value(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string render_labels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += prometheus_sanitize(k);
    out += "=\"";
    out += escape_label_value(v);
    out += "\"";
  }
  out += "}";
  return out;
}

/// Labels plus one extra pair — used for histogram `le` buckets.
std::string render_labels_with(const MetricLabels& labels,
                               const std::string& extra_key,
                               const std::string& extra_value) {
  MetricLabels all = labels;
  all.emplace_back(extra_key, extra_value);
  return render_labels(all);
}

/// Coarse exposition bounds (microseconds): powers of 4 from 1us up to
/// ~4.4 min, then +Inf. The native 448-bucket resolution stays available
/// through snapshot()/percentiles; exposition trades it for scrape size.
const std::uint64_t kExpoBoundsUs[] = {
    1,        4,        16,        64,        256,       1024,     4096,
    16384,    65536,    262144,    1048576,   4194304,   16777216, 67108864,
    268435456};

}  // namespace

// ---------------------------------------------------------------------------
// HistogramMetric

LatencyHistogram HistogramMetric::snapshot() const {
  LatencyHistogram out;
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    out.add_bucket_count(static_cast<std::uint32_t>(i),
                         buckets_[i].load(std::memory_order_relaxed));
  }
  return out;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

std::string prometheus_sanitize(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (std::size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (alpha || (digit && i > 0)) {
      out += c;
    } else if (digit) {  // leading digit
      out += '_';
      out += c;
    } else {
      out += '_';
    }
  }
  if (out.empty()) out = "_";
  return out;
}

MetricsRegistry::Entry* MetricsRegistry::find_locked(
    const std::string& name, const MetricLabels& labels, Kind kind) {
  for (Entry& e : entries_) {
    if (e.name != name || e.labels != labels) continue;
    if (e.kind != kind) {
      throw std::logic_error(
          "metrics registry: series '" + name +
          "' is already registered with a different metric kind");
    }
    return &e;
  }
  return nullptr;
}

void MetricsRegistry::expose_counter(const std::string& name,
                                     MetricLabels labels, const Counter* cell,
                                     const std::string& help) {
  std::lock_guard lock(mutex_);
  if (Entry* e = find_locked(name, labels, Kind::kCounter)) {
    e->counter = cell;
    return;
  }
  Entry e{name, std::move(labels), help, Kind::kCounter};
  e.counter = cell;
  entries_.push_back(std::move(e));
}

void MetricsRegistry::expose_histogram(const std::string& name,
                                       MetricLabels labels,
                                       const HistogramMetric* cell,
                                       const std::string& help) {
  std::lock_guard lock(mutex_);
  if (Entry* e = find_locked(name, labels, Kind::kHistogram)) {
    e->histogram = cell;
    return;
  }
  Entry e{name, std::move(labels), help, Kind::kHistogram};
  e.histogram = cell;
  entries_.push_back(std::move(e));
}

void MetricsRegistry::gauge_fn(const std::string& name, MetricLabels labels,
                               std::function<double()> fn,
                               const std::string& help,
                               bool counter_semantics) {
  std::lock_guard lock(mutex_);
  if (Entry* e = find_locked(name, labels, Kind::kFn)) {
    e->fn = std::move(fn);
    return;
  }
  Entry e{name, std::move(labels), help, Kind::kFn, counter_semantics};
  e.fn = std::move(fn);
  entries_.push_back(std::move(e));
}

std::string MetricsRegistry::prometheus_text() const {
  // Copy the entry list under the lock, then render without it: pull
  // gauges (kFn) run user callbacks that may themselves touch the
  // registry, which would self-deadlock on the non-recursive mutex. The
  // copied entries point at exposed cells, which outlive every scrape
  // (see expose_counter).
  std::vector<Entry> entries;
  {
    std::lock_guard lock(mutex_);
    entries = entries_;
  }

  // Group series by (sanitized) family name so HELP/TYPE print once.
  std::map<std::string, std::vector<const Entry*>> families;
  for (const Entry& e : entries) {
    families[prometheus_sanitize(e.name)].push_back(&e);
  }

  std::string out;
  for (const auto& [name, series] : families) {
    const Entry* first = series.front();
    const char* type = "gauge";
    if (first->kind == Kind::kCounter ||
        (first->kind == Kind::kFn && first->counter_semantics)) {
      type = "counter";
    } else if (first->kind == Kind::kHistogram) {
      type = "histogram";
    }
    // Every family gets a HELP line (scrapers and linters expect the
    // pair): the first series with a non-empty help string wins; families
    // registered without one get an explicit placeholder.
    std::string help;
    for (const Entry* e : series) {
      if (!e->help.empty()) {
        help = e->help;
        break;
      }
    }
    if (help.empty()) help = "(no description registered)";
    out += "# HELP " + name + " " + escape_help(help) + "\n";
    out += "# TYPE " + name + " " + type + "\n";

    for (const Entry* e : series) {
      switch (e->kind) {
        case Kind::kCounter:
          out += name + render_labels(e->labels) + " " +
                 std::to_string(e->counter->get()) + "\n";
          break;
        case Kind::kFn:
          out += name + render_labels(e->labels) + " " +
                 format_value(e->fn ? e->fn() : 0.0) + "\n";
          break;
        case Kind::kHistogram: {
          // Cumulative buckets over the coarse exposition bounds. A
          // native bucket [low, high) folds into le=bound only when it is
          // fully covered — its largest value high-1 is <= bound — else
          // its counts would overstate the cumulative total at this
          // bound; partially covered buckets wait for the next one.
          const auto native_high = [](std::size_t i) {
            return i + 1 < LatencyHistogram::kBuckets
                       ? LatencyHistogram::bucket_low(
                             static_cast<std::uint32_t>(i + 1))
                       : std::numeric_limits<std::uint64_t>::max();
          };
          std::uint64_t cumulative = 0;
          std::size_t native = 0;
          for (std::uint64_t bound : kExpoBoundsUs) {
            while (native < LatencyHistogram::kBuckets &&
                   native_high(native) <= bound + 1) {
              cumulative += e->histogram->bucket_count_relaxed(native);
              ++native;
            }
            out += name + "_bucket" +
                   render_labels_with(e->labels, "le",
                                      std::to_string(bound)) +
                   " " + std::to_string(cumulative) + "\n";
          }
          out += name + "_bucket" +
                 render_labels_with(e->labels, "le", "+Inf") + " " +
                 std::to_string(e->histogram->count()) + "\n";
          out += name + "_sum" + render_labels(e->labels) + " " +
                 std::to_string(e->histogram->sum()) + "\n";
          out += name + "_count" + render_labels(e->labels) + " " +
                 std::to_string(e->histogram->count()) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

std::size_t MetricsRegistry::series_count() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

}  // namespace beehive
