#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/str_util.h"
#include "src/common/time.h"

namespace oobp {
namespace {

TEST(TimeTest, UnitConversionsRoundTrip) {
  EXPECT_EQ(Us(1), 1000);
  EXPECT_EQ(Ms(1), 1000 * 1000);
  EXPECT_EQ(Sec(1), 1000 * 1000 * 1000);
  EXPECT_DOUBLE_EQ(ToUs(Us(12.5)), 12.5);
  EXPECT_DOUBLE_EQ(ToMs(Ms(3.25)), 3.25);
  EXPECT_DOUBLE_EQ(ToSec(Sec(2)), 2.0);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64();
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(5.0, 6.0);
    EXPECT_GE(x, 5.0);
    EXPECT_LT(x, 6.0);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(11);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 2000; ++i) {
    ++seen[rng.NextBelow(8)];
  }
  for (int count : seen) {
    EXPECT_GT(count, 100);  // roughly uniform
  }
}

TEST(RunningStatTest, MatchesClosedForm) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.13809, 1e-4);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stderr_mean(), s.stddev() / std::sqrt(8.0), 1e-12);
}

TEST(StatsTest, Mean) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(StatsTest, PercentileSortedNearestRank) {
  const std::vector<double> xs = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  // rank = ceil(p/100 * n); the result is always a sample element.
  EXPECT_DOUBLE_EQ(PercentileSorted(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(xs, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(xs, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(xs, 51.0), 60.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(xs, 95.0), 100.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(xs, 99.0), 100.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(xs, 100.0), 100.0);
}

TEST(StatsTest, PercentileSingletonAndUnsorted) {
  EXPECT_DOUBLE_EQ(PercentileSorted({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(PercentileSorted({7.0}, 99.0), 7.0);
  // Percentile() sorts a copy first.
  EXPECT_DOUBLE_EQ(Percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({3.0, 1.0, 2.0}, 100.0), 3.0);
}

TEST(StatsTest, IntHistogramCountsAndClamps) {
  IntHistogram h(8);
  h.Add(1);
  h.Add(1);
  h.Add(8);
  h.Add(99);   // clamped into the top bucket
  h.Add(-3);   // clamped into bucket 0
  EXPECT_EQ(h.max_value(), 8);
  EXPECT_EQ(h.count(0), 1);
  EXPECT_EQ(h.count(1), 2);
  EXPECT_EQ(h.count(8), 2);
  EXPECT_EQ(h.count(5), 0);
  EXPECT_EQ(h.total(), 5);
  // Mean is over the clamped values: (0 + 1 + 1 + 8 + 8) / 5.
  EXPECT_DOUBLE_EQ(h.mean(), 18.0 / 5.0);
}

TEST(StrUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrUtilTest, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

}  // namespace
}  // namespace oobp
