// Control-channel accounting.
//
// Every byte that crosses a hive boundary — application messages, registry
// RPCs, migration payloads, metrics reports — is recorded here. The meter
// produces the two artifacts of the paper's evaluation (Figure 4):
//   * the inter-hive traffic matrix (panels a–c), and
//   * the control-channel bandwidth time series in KB/s (panels d–f).
//
// Writes are striped per source hive: record(from, ...) touches only the
// source's stripe (its own mutex, its own matrix row and bandwidth series),
// so concurrent senders on the threaded runtime never contend with each
// other. Readers — scrapes, post-run analytics — merge across stripes;
// they are rare and pay the aggregation instead of the hot path.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/types.h"

namespace beehive {

class ChannelMeter {
 public:
  /// Resolution of the bandwidth time series: one second, matching the
  /// paper's KB/s.
  static constexpr Duration kBucket = kSecond;

  /// `n_hives` sizes the traffic matrix.
  explicit ChannelMeter(std::size_t n_hives);

  void record(HiveId from, HiveId to, std::size_t bytes, TimePoint when);

  // -- Traffic matrix (Fig 4 a–c) -----------------------------------------

  /// Bytes sent from hive `from` to hive `to` since construction/reset.
  std::uint64_t matrix_bytes(HiveId from, HiveId to) const;
  std::uint64_t matrix_messages(HiveId from, HiveId to) const;

  /// Fraction of all inter-hive bytes on the diagonal-adjacent... not
  /// meaningful; instead: fraction of traffic involving the busiest hive.
  /// Used by benches/tests to characterize centralization.
  double hotspot_share() const;

  /// Fraction of traffic between distinct hive pairs that involves hive h.
  double hive_share(HiveId h) const;

  std::size_t n_hives() const { return n_; }

  // -- Bandwidth time series (Fig 4 d–f) ----------------------------------

  /// Total bytes per bucket, cluster-wide, index = bucket number.
  std::vector<std::uint64_t> bandwidth_series() const;

  /// Convenience: series converted to KB/s.
  std::vector<double> bandwidth_kbps() const;

  std::uint64_t total_bytes() const;
  std::uint64_t total_messages() const;

  void reset();

  /// Renders the matrix as a coarse ASCII heat map (rows = source hive),
  /// `cells` characters wide/tall; for terminal inspection of Fig 4 a–c.
  std::string ascii_heatmap(std::size_t cells = 20) const;

 private:
  /// One source hive's accounting: a matrix row plus its contribution to
  /// the bandwidth series, guarded by its own lock. unique_ptr keeps the
  /// mutex address stable (Stripe itself is immovable).
  struct Stripe {
    mutable std::mutex mutex;
    std::vector<std::uint64_t> bytes;   ///< indexed by destination hive
    std::vector<std::uint64_t> counts;  ///< indexed by destination hive
    std::vector<std::uint64_t> series;  ///< per bucket
  };

  /// Merged copy of every stripe's matrix (bytes, counts): the read-side
  /// aggregation all matrix queries go through.
  void merge_matrix(std::vector<std::uint64_t>& bytes,
                    std::vector<std::uint64_t>& counts) const;
  static double share_of(const std::vector<std::uint64_t>& bytes,
                         std::size_t n, HiveId h);

  std::size_t n_;
  std::vector<std::unique_ptr<Stripe>> stripes_;  ///< indexed by source hive
};

}  // namespace beehive
