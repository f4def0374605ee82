#include "cluster/channel.h"

#include <algorithm>

#include "util/logging.h"

namespace beehive {

ChannelMeter::ChannelMeter(std::size_t n_hives) : n_(n_hives) {
  stripes_.reserve(n_hives);
  for (std::size_t i = 0; i < n_hives; ++i) {
    auto s = std::make_unique<Stripe>();
    s->bytes.assign(n_hives, 0);
    s->counts.assign(n_hives, 0);
    stripes_.push_back(std::move(s));
  }
}

void ChannelMeter::record(HiveId from, HiveId to, std::size_t bytes,
                          TimePoint when) {
  if (from >= n_ || to >= n_) {
    // A corrupt or mis-addressed sample must not index out of bounds (and
    // in release builds the old assert would have let it). Drop loudly.
    BH_WARN << "ChannelMeter: dropping sample for out-of-range link "
            << from << " -> " << to << " (n_hives=" << n_ << ")";
    return;
  }
  Stripe& s = *stripes_[from];
  std::lock_guard lock(s.mutex);
  s.bytes[to] += bytes;
  s.counts[to] += 1;
  auto bucket = static_cast<std::size_t>(when / kBucket);
  if (s.series.size() <= bucket) s.series.resize(bucket + 1, 0);
  s.series[bucket] += bytes;
}

void ChannelMeter::merge_matrix(std::vector<std::uint64_t>& bytes,
                                std::vector<std::uint64_t>& counts) const {
  bytes.assign(n_ * n_, 0);
  counts.assign(n_ * n_, 0);
  for (std::size_t from = 0; from < n_; ++from) {
    const Stripe& s = *stripes_[from];
    std::lock_guard lock(s.mutex);
    for (std::size_t to = 0; to < n_; ++to) {
      bytes[from * n_ + to] = s.bytes[to];
      counts[from * n_ + to] = s.counts[to];
    }
  }
}

std::uint64_t ChannelMeter::matrix_bytes(HiveId from, HiveId to) const {
  const Stripe& s = *stripes_.at(from);
  std::lock_guard lock(s.mutex);
  return s.bytes.at(to);
}

std::uint64_t ChannelMeter::matrix_messages(HiveId from, HiveId to) const {
  const Stripe& s = *stripes_.at(from);
  std::lock_guard lock(s.mutex);
  return s.counts.at(to);
}

double ChannelMeter::share_of(const std::vector<std::uint64_t>& bytes,
                              std::size_t n, HiveId h) {
  std::uint64_t total = 0;
  std::uint64_t involving = 0;
  for (HiveId i = 0; i < n; ++i) {
    for (HiveId j = 0; j < n; ++j) {
      if (i == j) continue;
      std::uint64_t b = bytes[i * n + j];
      total += b;
      if (i == h || j == h) involving += b;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(involving) /
                                static_cast<double>(total);
}

double ChannelMeter::hive_share(HiveId h) const {
  std::vector<std::uint64_t> bytes, counts;
  merge_matrix(bytes, counts);
  return share_of(bytes, n_, h);
}

double ChannelMeter::hotspot_share() const {
  // One merged snapshot for all candidates — n lock acquisitions instead
  // of n².
  std::vector<std::uint64_t> bytes, counts;
  merge_matrix(bytes, counts);
  double best = 0.0;
  for (HiveId h = 0; h < n_; ++h) best = std::max(best, share_of(bytes, n_, h));
  return best;
}

std::vector<std::uint64_t> ChannelMeter::bandwidth_series() const {
  std::vector<std::uint64_t> out;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mutex);
    if (stripe->series.size() > out.size()) {
      out.resize(stripe->series.size(), 0);
    }
    for (std::size_t b = 0; b < stripe->series.size(); ++b) {
      out[b] += stripe->series[b];
    }
  }
  return out;
}

std::vector<double> ChannelMeter::bandwidth_kbps() const {
  const std::vector<std::uint64_t> series = bandwidth_series();
  std::vector<double> out;
  constexpr double seconds =
      static_cast<double>(kBucket) / static_cast<double>(kSecond);
  out.reserve(series.size());
  for (std::uint64_t b : series) {
    out.push_back(static_cast<double>(b) / 1024.0 / seconds);
  }
  return out;
}

std::uint64_t ChannelMeter::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mutex);
    for (std::uint64_t b : stripe->bytes) total += b;
  }
  return total;
}

std::uint64_t ChannelMeter::total_messages() const {
  std::uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mutex);
    for (std::uint64_t c : stripe->counts) total += c;
  }
  return total;
}

void ChannelMeter::reset() {
  for (auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mutex);
    std::fill(stripe->bytes.begin(), stripe->bytes.end(), 0);
    std::fill(stripe->counts.begin(), stripe->counts.end(), 0);
    stripe->series.clear();
  }
}

std::string ChannelMeter::ascii_heatmap(std::size_t cells) const {
  // Downsample the n x n byte matrix into a cells x cells grid and render
  // each grid cell with a density character.
  static const char kShades[] = {' ', '.', ':', '+', '*', '#', '@'};
  constexpr std::size_t kLevels = sizeof(kShades) - 1;

  std::vector<std::uint64_t> bytes, counts;
  merge_matrix(bytes, counts);
  const std::size_t grid = std::min(cells, n_);
  std::vector<std::uint64_t> agg(grid * grid, 0);
  std::uint64_t peak = 0;
  for (HiveId i = 0; i < n_; ++i) {
    for (HiveId j = 0; j < n_; ++j) {
      std::size_t gi = i * grid / n_;
      std::size_t gj = j * grid / n_;
      agg[gi * grid + gj] += bytes[i * n_ + j];
    }
  }
  for (std::uint64_t v : agg) peak = std::max(peak, v);

  std::string out;
  out.reserve(grid * (grid + 1));
  for (std::size_t gi = 0; gi < grid; ++gi) {
    for (std::size_t gj = 0; gj < grid; ++gj) {
      std::uint64_t v = agg[gi * grid + gj];
      std::size_t level = 0;
      if (peak > 0 && v > 0) {
        level = 1 + v * (kLevels - 1) / peak;
        if (level > kLevels) level = kLevels;
      }
      out.push_back(kShades[level]);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace beehive
