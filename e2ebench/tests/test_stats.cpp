// Unit tests of the benchmark's own arithmetic (src/stats.hpp) on synthetic
// inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "stats.hpp"

namespace e2ebench {
namespace {

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

TEST(Percentiles, MedianOfOddAndEvenSamples) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_TRUE(std::isnan(median({})));
}

TEST(Percentiles, NearestRank) {
  const auto v = iota_samples(1000);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 9900), 990.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 9000), 900.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 10000), 1000.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 1), 1.0);
}

// The reported tail is the highest percentile with at least ten samples
// beyond its rank.
TEST(Percentiles, TailPercentileNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(tail_percentile_for(0).has_value());
  EXPECT_FALSE(tail_percentile_for(99).has_value());  // p90 rank 90: 9 beyond
  EXPECT_EQ(tail_percentile_for(100), 9000);          // p90 rank 90: 10 beyond
  EXPECT_EQ(tail_percentile_for(999), 9000);          // p99 rank 990: 9 beyond
  EXPECT_EQ(tail_percentile_for(1000), 9900);
  EXPECT_EQ(tail_percentile_for(9999), 9900);
  EXPECT_EQ(tail_percentile_for(10000), 9990);
  EXPECT_EQ(tail_percentile_for(100000), 9999);
}

TEST(Percentiles, SummaryReportsMedianTailAndCount) {
  std::vector<double> v = iota_samples(1000);
  std::reverse(v.begin(), v.end());  // summarize sorts its own copy
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.median, 500.5);
  EXPECT_EQ(s.tail_q, 9900);
  EXPECT_DOUBLE_EQ(s.tail, 990.0);

  const Summary small = summarize({5, 1, 3});
  EXPECT_EQ(small.n, 3u);
  EXPECT_DOUBLE_EQ(small.median, 3.0);
  EXPECT_EQ(small.tail_q, 0);
}

TEST(Percentiles, SumOfMediansIgnoresAStallInOnePartOfEachRound) {
  // Three parts over three rounds; every round stalls in a different part.
  const std::vector<std::vector<double>> parts = {{9, 1, 1}, {2, 8, 2}, {3, 3, 7}};
  EXPECT_DOUBLE_EQ(sum_of_medians(parts), 1 + 2 + 3);
  // Every round sum (14, 12, 10) holds a stall, so their median does too.
  EXPECT_DOUBLE_EQ(median({9 + 2 + 3, 1 + 8 + 3, 1 + 2 + 7}), 12);
  EXPECT_DOUBLE_EQ(sum_of_medians({}), 0.0);
}

TEST(Percentiles, WindowedPercentileIgnoresOneStalledWindow) {
  // Five windows of 100 samples each at 1..100 ms; window 2 also holds a
  // stall that pushes its tail to 500 ms.
  std::vector<double> samples;
  std::vector<std::uint32_t> window;
  for (std::uint32_t w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) {
      samples.push_back(w == 2 && i > 90 ? 500.0 : i);
      window.push_back(w);
    }
  }
  EXPECT_DOUBLE_EQ(windowed_percentile(samples, window, 9900), 99.0);
  EXPECT_DOUBLE_EQ(windowed_percentile(samples, window, 5000), 50.0);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 9900), 500.0);  // the whole-phase p99
  // A queue that keeps growing fails most windows, so the median sees it.
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (window[i] >= 2) samples[i] += 100.0 * window[i];
  }
  EXPECT_GT(windowed_percentile(samples, window, 9900), 250.0);
}

TEST(Failures, RefusalCountsAsFailure) {
  FailCount f;
  f.add(true);
  f.add(true);
  f.add(false);  // a refused request
  f.add(false);  // a failed output check
  EXPECT_EQ(f.attempted, 4u);
  EXPECT_EQ(f.failed, 2u);
  EXPECT_DOUBLE_EQ(f.frac(), 0.5);
  EXPECT_DOUBLE_EQ(FailCount{}.frac(), 0.0);
}

TEST(OpenLoop, LatencyIsMeasuredFromTheDueTime) {
  // Due at 1.000 ms, sent 0.5 ms late, server took 2 ms: 2.5 ms.
  EXPECT_DOUBLE_EQ(latency_from_due_ms(1'000'000, 1'500'000, 2'000'000, false), 2.5);
  // On time: only the server's share.
  EXPECT_DOUBLE_EQ(latency_from_due_ms(7'000, 7'000, 300'000, false), 0.3);
  // A refused request is over every latency limit.
  EXPECT_TRUE(std::isinf(latency_from_due_ms(0, 10, 0, true)));
  std::vector<double> lat = {1.0, 2.0, latency_from_due_ms(0, 0, 0, true)};
  std::sort(lat.begin(), lat.end());
  EXPECT_TRUE(std::isinf(percentile_sorted(lat, 9900)));
}

TEST(ModeledTime, SlowestComputePlusSlowestComm) {
  const AlphaBeta ab{1e-6, 1e-9};
  const RankStep ranks[] = {
      {0.010, 1000, 4},   // comm 4e-6 + 1e-6 = 5e-6
      {0.030, 0, 0},      // slowest compute
      {0.020, 5000, 10},  // slowest comm: 1e-5 + 5e-6 = 1.5e-5
  };
  EXPECT_DOUBLE_EQ(comm_seconds(ranks[2], ab), 1.5e-5);
  EXPECT_DOUBLE_EQ(modeled_step_seconds(ranks, ab), 0.030 + 1.5e-5);
  // Summing per-step modeled times over an epoch.
  double epoch = 0;
  for (int step = 0; step < 3; ++step) epoch += modeled_step_seconds(ranks, ab);
  EXPECT_DOUBLE_EQ(epoch, 3 * (0.030 + 1.5e-5));
  EXPECT_DOUBLE_EQ(modeled_step_seconds({}, ab), 0.0);
}

}  // namespace
}  // namespace e2ebench
