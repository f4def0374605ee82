// Order statistics over the benchmark's own samples.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace beebench {

/// Nearest-rank quantile of an ascending-sorted sample: the smallest value
/// with at least q of the sample at or below it. Always an observed value.
/// Returns 0 for an empty sample.
template <typename T>
double quantile_sorted(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return static_cast<double>(sorted[rank - 1]);
}

/// Median with the two middle values averaged for an even count.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Samples strictly above quantile q's value — how many observations a
/// reported percentile rests on from above.
template <typename T>
std::size_t count_above(const std::vector<T>& sorted, double q) {
  const double cut = quantile_sorted(sorted, q);
  return static_cast<std::size_t>(
      sorted.end() -
      std::upper_bound(sorted.begin(), sorted.end(), cut,
                       [](double c, const T& x) {
                         return c < static_cast<double>(x);
                       }));
}

/// The highest of p50/p90/p99/p99.9/p99.99 with at least ten samples
/// beyond it (the most extreme percentile the sample supports), or 0.5
/// when even p90 has fewer.
inline double highest_supported_quantile(std::size_t n) {
  double best = 0.5;
  for (double q : {0.9, 0.99, 0.999, 0.9999}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) best = q;
  }
  return best;
}

/// A latency distribution's summary in the sample's own unit.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::size_t beyond_p99 = 0;  ///< samples above the p99 value
  double top_q = 0.5;          ///< highest_supported_quantile(count)
  double top = 0.0;            ///< value at top_q
};

/// Sorts `samples` in place and summarizes them.
template <typename T>
Summary summarize(std::vector<T>& samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.count = samples.size();
  s.p50 = quantile_sorted(samples, 0.50);
  s.p90 = quantile_sorted(samples, 0.90);
  s.p99 = quantile_sorted(samples, 0.99);
  s.beyond_p99 = count_above(samples, 0.99);
  s.top_q = highest_supported_quantile(samples.size());
  s.top = quantile_sorted(samples, s.top_q);
  return s;
}

/// Fixed-size log-linear histogram of non-negative integer samples (ns).
/// Values below 2 * kSub are kept exactly; above that each power of two is
/// split into kSub buckets, so a bucket spans at most 1/kSub (0.4%) of its
/// values. Its memory is allocated and written once, when it is built, and
/// does not depend on how many samples it takes.
class Histogram {
 public:
  static constexpr int kSubBits = 8;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  /// Samples from 2^kMaxBits ns (about 69 s) on share the top bucket.
  static constexpr int kMaxBits = 36;
  static constexpr std::size_t kBuckets = (kMaxBits - kSubBits + 1) * kSub;

  Histogram() : counts_(kBuckets, 0) {}

  void add(std::int64_t v) {
    ++counts_[index(v < 0 ? 0 : static_cast<std::uint64_t>(v))];
    ++total_;
  }
  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }
  void clear() {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
  }
  std::size_t count() const { return total_; }

  /// Nearest-rank quantile, interpolated by rank within its bucket: exact
  /// below 2 * kSub, within a bucket's width above. 0 when empty.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const std::size_t rank = rank_of(q);
    std::size_t before = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (before + counts_[i] >= rank) {
        const double into = static_cast<double>(rank - before) /
                            static_cast<double>(counts_[i]);
        return static_cast<double>(lower(i)) +
               static_cast<double>(width(i) - 1) * into;
      }
      before += counts_[i];
    }
    return static_cast<double>(lower(kBuckets - 1));
  }

  /// Samples in buckets above the one holding quantile q.
  std::size_t count_above(double q) const {
    if (total_ == 0) return 0;
    const std::size_t rank = rank_of(q);
    std::size_t through = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      through += counts_[i];
      if (through >= rank) return total_ - through;
    }
    return 0;
  }

  Summary summary() const {
    Summary s;
    s.count = total_;
    s.p50 = quantile(0.50);
    s.p90 = quantile(0.90);
    s.p99 = quantile(0.99);
    s.beyond_p99 = count_above(0.99);
    s.top_q = highest_supported_quantile(total_);
    s.top = quantile(s.top_q);
    return s;
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    v = std::min(v, (std::uint64_t{1} << kMaxBits) - 1);
    const int shift = static_cast<int>(std::bit_width(v)) - 1 - kSubBits;
    return static_cast<std::size_t>(shift + 1) * kSub +
           static_cast<std::size_t>((v >> shift) - kSub);
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < 2 * kSub) return i;
    const std::size_t shift = i / kSub - 1;
    return (kSub + i % kSub) << shift;
  }
  static std::uint64_t width(std::size_t i) {
    return i < 2 * kSub ? 1 : std::uint64_t{1} << (i / kSub - 1);
  }
  std::size_t rank_of(double q) const {
    const auto r = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(total_)));
    return std::clamp<std::size_t>(r, 1, total_);
  }

  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace beebench
