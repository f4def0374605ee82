// Log-bucketed latency histogram (HDR-style).
//
// Values are microsecond durations. Buckets are exact below 16 us and
// thereafter split each power-of-two octave into 16 sub-buckets, so the
// relative quantization error is bounded by ~3% while the whole table is a
// fixed 448-slot array: recording is two integer ops and one increment —
// no allocation, safe on the per-message dispatch path. The histogram is
// WireEncodable (sparse: only non-empty buckets are serialized) so a hive's
// e2e window ships inside LocalMetricsReport, and mergeable so hives and
// benches can aggregate across bees and hives.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string_view>

#include "util/bytes.h"
#include "util/types.h"

namespace beehive {

class LatencyHistogram {
 public:
  static constexpr std::string_view kTypeName = "platform.latency_hist";

  /// 16 sub-buckets per octave -> worst-case relative error 1/32.
  static constexpr std::uint32_t kSubBits = 4;
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBits;
  /// Largest shift kept distinct; values beyond ~2^30 us (~18 min) clamp
  /// into the top bucket. Far above any latency this platform produces.
  static constexpr std::uint32_t kMaxShift = 26;
  static constexpr std::uint32_t kBuckets = (kMaxShift + 2) * kSubBuckets;

  void record(Duration v) {
    const std::uint64_t value = v < 0 ? 0 : static_cast<std::uint64_t>(v);
    record_at(index(value), value);
  }

  /// record() with the bucket index precomputed by the caller. The dispatch
  /// hot path records one latency value twice (the bee's window here, the
  /// hive's HistogramMetric cell); computing index() once and fanning out
  /// the increments keeps the per-message cost at one bucket computation.
  void record_at(std::uint32_t idx, std::uint64_t value) {
    buckets_[idx] += 1;
    count_ += 1;
    sum_ += value;
    if (value > max_) max_ = value;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max() const { return max_; }
  std::uint64_t bucket_count(std::uint32_t i) const { return buckets_[i]; }

  /// Adds `c` samples directly into bucket `i` (registry snapshots fold
  /// atomic bucket arrays in this way); the sum and max are approximated
  /// with the bucket midpoint since the original values are gone.
  void add_bucket_count(std::uint32_t i, std::uint64_t c) {
    if (c == 0) return;
    buckets_[i] += c;
    count_ += c;
    sum_ += bucket_mid(i) * c;
    if (bucket_mid(i) > max_) max_ = bucket_mid(i);
  }
  double mean() const {
    return count_ == 0
               ? 0.0
               : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Value at quantile `q` in [0, 1]: the representative (midpoint) of the
  /// first bucket whose cumulative count reaches q * count. 0 when empty.
  std::uint64_t percentile(double q) const {
    if (count_ == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    std::uint64_t target =
        static_cast<std::uint64_t>(q * static_cast<double>(count_) + 0.5);
    if (target == 0) target = 1;
    std::uint64_t seen = 0;
    for (std::uint32_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= target) return bucket_mid(i);
    }
    return bucket_mid(kBuckets - 1);
  }

  std::uint64_t p50() const { return percentile(0.50); }
  std::uint64_t p90() const { return percentile(0.90); }
  std::uint64_t p99() const { return percentile(0.99); }

  void merge(const LatencyHistogram& other) {
    for (std::uint32_t i = 0; i < kBuckets; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
  }

  void reset() { *this = LatencyHistogram{}; }

  bool operator==(const LatencyHistogram&) const = default;

  // -- Wire codec (sparse: only non-empty buckets) -------------------------

  void encode(ByteWriter& w) const {
    w.varint(sum_);
    w.varint(max_);
    std::uint32_t non_empty = 0;
    for (std::uint64_t c : buckets_) non_empty += c != 0;
    w.varint(non_empty);
    for (std::uint32_t i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      w.varint(i);
      w.varint(buckets_[i]);
    }
  }
  static LatencyHistogram decode(ByteReader& r) {
    LatencyHistogram h;
    h.sum_ = r.varint();
    h.max_ = r.varint();
    std::uint64_t non_empty = r.varint();
    for (std::uint64_t i = 0; i < non_empty; ++i) {
      std::uint64_t idx = r.varint();
      std::uint64_t c = r.varint();
      if (idx >= kBuckets) throw DecodeError("histogram bucket out of range");
      h.buckets_[idx] = c;
      h.count_ += c;
    }
    return h;
  }

  // -- Bucket geometry (exposed for tests) ---------------------------------

  static std::uint32_t index(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<std::uint32_t>(v);
    std::uint32_t shift = static_cast<std::uint32_t>(std::bit_width(v)) - 1 -
                          kSubBits;
    if (shift > kMaxShift) {
      shift = kMaxShift;
      v = (static_cast<std::uint64_t>(2 * kSubBuckets) << kMaxShift) - 1;
    }
    std::uint32_t sub =
        static_cast<std::uint32_t>(v >> shift) & (kSubBuckets - 1);
    return (shift + 1) * kSubBuckets + sub;
  }

  /// Lower bound of bucket `i` (inclusive).
  static std::uint64_t bucket_low(std::uint32_t i) {
    if (i < kSubBuckets) return i;
    std::uint32_t shift = i / kSubBuckets - 1;
    std::uint64_t sub = i % kSubBuckets;
    return (sub + kSubBuckets) << shift;
  }

  /// Representative value of bucket `i` (midpoint of its range).
  static std::uint64_t bucket_mid(std::uint32_t i) {
    if (i < kSubBuckets) return i;
    std::uint32_t shift = i / kSubBuckets - 1;
    return bucket_low(i) + (static_cast<std::uint64_t>(1) << shift) / 2;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace beehive
