// Tests of the benchmark's own logic: order statistics, the answer models,
// the ledger arithmetic and the TE shape check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "ledger.h"
#include "model.h"
#include "stats.h"
#include "te_check.h"

namespace beebench {
namespace {

std::vector<int> one_to(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

TEST(Stats, NearestRankQuantiles) {
  const std::vector<int> v = one_to(100);
  EXPECT_EQ(quantile_sorted(v, 0.50), 50);
  EXPECT_EQ(quantile_sorted(v, 0.90), 90);
  EXPECT_EQ(quantile_sorted(v, 0.99), 99);
  EXPECT_EQ(quantile_sorted(v, 1.0), 100);
  EXPECT_EQ(quantile_sorted(v, 0.0), 1);
  EXPECT_EQ(quantile_sorted(std::vector<int>{}, 0.5), 0);
  EXPECT_EQ(quantile_sorted(std::vector<int>{7}, 0.99), 7);
}

TEST(Stats, MedianAveragesTheMiddlePair) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, SampleCountsBehindPercentiles) {
  const std::vector<int> v = one_to(1000);
  EXPECT_EQ(count_above(v, 0.99), 10u);
  EXPECT_EQ(count_above(v, 0.50), 500u);
  // Ties at the cut are not "beyond" it.
  EXPECT_EQ(count_above(std::vector<int>{1, 2, 2, 2}, 0.5), 0u);

  EXPECT_DOUBLE_EQ(highest_supported_quantile(9), 0.5);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(100), 0.9);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(999), 0.9);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(100000), 0.9999);
}

TEST(Stats, SummarizeReportsCountAndTail) {
  std::vector<std::int64_t> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500);
  EXPECT_DOUBLE_EQ(s.p90, 900);
  EXPECT_DOUBLE_EQ(s.p99, 990);
  EXPECT_EQ(s.beyond_p99, 10u);
  EXPECT_DOUBLE_EQ(s.top_q, 0.99);
  EXPECT_DOUBLE_EQ(s.top, 990);
}

TEST(Histogram, ExactBelowTheLogRange) {
  Histogram h;
  for (int v : one_to(100)) h.add(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 50);
  EXPECT_DOUBLE_EQ(h.quantile(0.90), 90);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1);
  EXPECT_EQ(h.count_above(0.99), 1u);
  EXPECT_EQ(h.count_above(0.50), 50u);
  EXPECT_DOUBLE_EQ(Histogram().quantile(0.5), 0.0);
}

TEST(Histogram, LogBucketsStayWithinTheirWidth) {
  std::vector<std::int64_t> raw;
  Histogram h;
  for (std::int64_t v = 700; v < 3'000'000; v = v * 21 / 20 + 13) {
    raw.push_back(v);
    h.add(v);
  }
  std::vector<std::int64_t> sorted = raw;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double exact = quantile_sorted(sorted, q);
    EXPECT_NEAR(h.quantile(q), exact, exact / Histogram::kSub) << q;
  }
  // Summaries agree with the exact ones on counts.
  const Summary s = h.summary();
  const Summary e = summarize(raw);
  EXPECT_EQ(s.count, e.count);
  EXPECT_EQ(s.beyond_p99, e.beyond_p99);
  EXPECT_DOUBLE_EQ(s.top_q, e.top_q);
}

TEST(Histogram, ClampsNegativeAndHugeSamples) {
  Histogram h;
  h.add(-5);
  h.add(std::int64_t{1} << 50);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  const double top = h.quantile(1.0);
  EXPECT_GE(top, static_cast<double>(std::int64_t{1} << (Histogram::kMaxBits - 1)));
  EXPECT_LT(top, static_cast<double>(std::int64_t{1} << Histogram::kMaxBits));
}

TEST(Histogram, MergeAddsAndClearEmpties) {
  Histogram a, b;
  for (int v : one_to(10)) a.add(v);
  for (int v : one_to(10)) b.add(v + 10);
  a.merge(b);
  EXPECT_EQ(a.count(), 20u);
  EXPECT_DOUBLE_EQ(a.quantile(0.5), 10);
  EXPECT_DOUBLE_EQ(a.quantile(1.0), 20);
  a.clear();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.quantile(0.5), 0.0);
}

TEST(LswOracle, ExpectsLearnedPortOrFlood) {
  LswOracle o(2, 4);
  o.learn(0, /*mac=*/10, /*port=*/3);
  std::uint16_t want = 0;
  ASSERT_TRUE(o.sent(/*slot=*/0, /*sw=*/0, /*src=*/11, /*in_port=*/5,
                     /*dst=*/10, &want));
  EXPECT_EQ(want, 3);
  ASSERT_TRUE(o.sent(1, 0, 10, 3, /*dst=*/99, &want));
  EXPECT_EQ(want, kFlood);
  // The source was learned before the lookup: 11 is now known on port 5.
  ASSERT_TRUE(o.sent(2, 0, 10, 3, 11, &want));
  EXPECT_EQ(want, 5);
  // Another switch's table is separate.
  ASSERT_TRUE(o.sent(3, 1, 10, 7, 11, &want));
  EXPECT_EQ(want, kFlood);
}

TEST(LswOracle, RejectsWrongPortAndMatchesInOrder) {
  LswOracle o(1, 4);
  o.learn(0, 10, 3);
  o.learn(0, 11, 4);
  ASSERT_TRUE(o.sent(7, 0, 11, 4, 10, nullptr));
  ASSERT_TRUE(o.sent(8, 0, 10, 3, 11, nullptr));

  auto first = o.answered(0, 10, /*port=*/9);  // wrong port
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->slot, 7u);
  EXPECT_FALSE(first->ok);

  auto second = o.answered(0, 11, 4);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->slot, 8u);
  EXPECT_TRUE(second->ok);

  EXPECT_FALSE(o.answered(0, 11, 4).has_value());  // nothing pending
}

TEST(LswOracle, RejectsReplyForAnotherDestination) {
  LswOracle o(1, 2);
  o.learn(0, 10, 3);
  ASSERT_TRUE(o.sent(0, 0, 11, 4, 10, nullptr));
  auto a = o.answered(0, /*dst=*/12, 3);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(a->ok);
}

TEST(LswOracle, RefusesMorePendingThanClients) {
  LswOracle o(1, 1);
  ASSERT_TRUE(o.sent(0, 0, 1, 1, 2, nullptr));
  EXPECT_FALSE(o.sent(1, 0, 1, 1, 2, nullptr));
  EXPECT_EQ(o.pending(0), 1u);
}

TEST(DirectoryOracle, RejectsStaleLocationAfterMove) {
  DirectoryOracle d(4);
  d.moved(2, {5, 7});
  const DirectoryOracle::Location before = d.expected(2);
  d.moved(2, {6, 1});
  const DirectoryOracle::Location after = d.expected(2);
  EXPECT_TRUE(DirectoryOracle::matches(after, true, 6, 1));
  // The lookup that follows a move must not see the old location...
  EXPECT_FALSE(DirectoryOracle::matches(after, true, before.sw, before.port));
  // ... nor "not found", nor a right switch with a wrong port.
  EXPECT_FALSE(DirectoryOracle::matches(after, false, 6, 1));
  EXPECT_FALSE(DirectoryOracle::matches(after, true, 6, 2));
}

TEST(Ledger, ResidualIsMeasuredMinusReplayedLayers) {
  Ledger l;
  l.measured_ns_per_req = 3000.0;
  l.rows.push_back({"apps.map", 20.0, 2.0});      // 40
  l.rows.push_back({"apps.handler", 400.0, 1.5});  // 600
  l.rows.push_back({"msg.encode", 100.0, 0.0});    // 0
  EXPECT_DOUBLE_EQ(l.explained_ns_per_req(), 640.0);
  EXPECT_DOUBLE_EQ(l.residual_ns_per_req(), 2360.0);

  l.measured_ns_per_req = 500.0;  // replays cost more than the live run
  EXPECT_DOUBLE_EQ(l.residual_ns_per_req(), -140.0);
}

TEOutcome good_optimized() {
  TEOutcome o;
  o.flow_mods = 4000;
  o.migrations = 391;
  o.tail_locality = 0.955;
  o.tail_kbps = 88.5;
  o.head_kbps = 300.0;
  return o;
}

TEOutcome decoupled_reference() {
  TEOutcome o;
  o.flow_mods = 4000;
  o.tail_locality = 0.96;
  o.tail_kbps = 80.0;
  o.head_kbps = 90.0;
  return o;
}

TEST(TEShape, AcceptsThePapersShape) {
  EXPECT_TRUE(
      te_shape_failures(good_optimized(), decoupled_reference(), 4000).empty());
}

TEST(TEShape, RejectsEachBrokenClaim) {
  const TEOutcome ref = decoupled_reference();
  TEOutcome o = good_optimized();
  o.flow_mods = 3999;
  EXPECT_EQ(te_shape_failures(o, ref, 4000).size(), 1u);

  o = good_optimized();
  o.migrations = 0;
  EXPECT_EQ(te_shape_failures(o, ref, 4000).size(), 1u);

  o = good_optimized();
  o.tail_locality = 0.5;
  EXPECT_EQ(te_shape_failures(o, ref, 4000).size(), 1u);

  o = good_optimized();
  o.tail_kbps = 1.5 * ref.tail_kbps + 2.0;
  EXPECT_EQ(te_shape_failures(o, ref, 4000).size(), 1u);

  o = good_optimized();
  o.head_kbps = o.tail_kbps;
  EXPECT_EQ(te_shape_failures(o, ref, 4000).size(), 1u);
}

}  // namespace
}  // namespace beebench
