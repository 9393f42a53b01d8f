#include "stats.h"

#include <cmath>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

Samples Range(int n) {
  Samples samples;
  for (int i = 1; i <= n; ++i) samples.Add(i);
  return samples;
}

TEST(PercentileTest, NearestRankOnOneToHundred) {
  const Samples samples = Range(100);
  EXPECT_EQ(Percentile(samples, 0.5), 50.0);
  EXPECT_EQ(Percentile(samples, 0.9), 90.0);
  EXPECT_EQ(Percentile(samples, 0.99), 99.0);
  EXPECT_EQ(Percentile(samples, 1.0), 100.0);
  EXPECT_EQ(Percentile(samples, 0.0), 1.0);
}

TEST(PercentileTest, EmptyIsNaN) {
  EXPECT_TRUE(std::isnan(Percentile(Samples{}, 0.5)));
}

TEST(PercentileTest, FailuresSortAsInfinity) {
  Samples samples = Range(8);
  samples.AddFailure();
  samples.AddFailure();
  // Ten samples: ranks 9 and 10 are the failures.
  EXPECT_EQ(Percentile(samples, 0.5), 5.0);
  EXPECT_EQ(Percentile(samples, 0.8), 8.0);
  EXPECT_TRUE(std::isinf(Percentile(samples, 0.9)));
  EXPECT_GT(Percentile(samples, 0.9), 0.0);
}

TEST(PercentileTest, FailuresShiftTheMedianUp) {
  Samples samples = Range(10);
  const double before = Percentile(samples, 0.5);
  for (int i = 0; i < 4; ++i) samples.AddFailure();
  EXPECT_GT(Percentile(samples, 0.5), before);
}

TEST(SupportTest, NeedsTenSamplesBeyondTheRank) {
  EXPECT_FALSE(PercentileSupported(0.5, 0));
  EXPECT_FALSE(PercentileSupported(0.5, 19));
  EXPECT_TRUE(PercentileSupported(0.5, 20));
  EXPECT_FALSE(PercentileSupported(0.9, 99));
  EXPECT_TRUE(PercentileSupported(0.9, 100));
  EXPECT_FALSE(PercentileSupported(0.99, 999));
  EXPECT_TRUE(PercentileSupported(0.99, 1000));
}

TEST(SupportTest, HighestSupportedPercentile) {
  EXPECT_EQ(HighestSupportedPercentile(5), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 0.5);
  EXPECT_EQ(HighestSupportedPercentile(150), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 0.999);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_TRUE(std::isnan(Median({})));
}

// Reference values from Python: statistics.quantiles(data, n=4).
TEST(QuartilesTest, MatchesPythonExclusiveMethod) {
  const Quartiles ten =
      ExclusiveQuartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.median, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);

  const Quartiles unsorted = ExclusiveQuartiles({10, 2, 7, 4, 1});
  EXPECT_DOUBLE_EQ(unsorted.q1, 1.5);
  EXPECT_DOUBLE_EQ(unsorted.median, 4.0);
  EXPECT_DOUBLE_EQ(unsorted.q3, 8.5);

  const Quartiles two = ExclusiveQuartiles({1, 2});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.median, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
}

TEST(MeanTest, EmptyIsZero) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(Mean({1.0, 2.0, 6.0}), 3.0);
}

}  // namespace
}  // namespace perfbench
