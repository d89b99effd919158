#include "stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace hopsbench {
namespace {

TEST(QuantileTest, InterpolatesBetweenClosestRanks) {
  // Same definition as numpy's default and Python's
  // statistics.quantiles(method="inclusive").
  const std::vector<double> sorted = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 0.75), 3.25);
}

TEST(QuantileTest, SortsAndClampsAndHandlesEmpty) {
  EXPECT_DOUBLE_EQ(Quantile({9, 1, 5}, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(Quantile({9, 1, 5}, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile({9, 1, 5}, 2.0), 9.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({7}, 0.99), 7.0);
}

TEST(SummarizeTest, ReportsTheSampleStatsShape) {
  std::vector<double> samples;
  for (int i = 100; i >= 0; --i) samples.push_back(i);  // 0..100, unsorted
  const SampleStats s = Summarize(samples);
  EXPECT_EQ(s.n, 101u);
  EXPECT_DOUBLE_EQ(s.median, 50.0);
  EXPECT_DOUBLE_EQ(s.p05, 5.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  // Sample standard deviation of 0..100: sqrt(101 * 102 / 12 * 100 / 100).
  EXPECT_NEAR(s.stddev, std::sqrt(858.5), 1e-9);
  EXPECT_EQ(Summarize({}).n, 0u);
  EXPECT_DOUBLE_EQ(Summarize({3}).stddev, 0.0);
}

TEST(QErrorTest, IsSymmetricAndClampsBelowOneTuple) {
  EXPECT_DOUBLE_EQ(QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(QError(20, 10), 2.0);
  EXPECT_DOUBLE_EQ(QError(10, 20), 2.0);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0.25, 4), 4.0);
  EXPECT_DOUBLE_EQ(QError(8, 0), 8.0);
}

}  // namespace
}  // namespace hopsbench
