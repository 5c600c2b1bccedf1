#include "stats/descriptive.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/errors.h"

namespace avtk::stats {
namespace {

const std::vector<double> k_simple = {1, 2, 3, 4, 5};

TEST(Mean, KnownValues) {
  EXPECT_DOUBLE_EQ(mean(k_simple), 3.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{42}), 42.0);
}

TEST(Mean, EmptyThrows) { EXPECT_THROW(mean({}), logic_error); }

TEST(Variance, KnownValue) {
  EXPECT_DOUBLE_EQ(variance(k_simple), 2.5);  // sample variance, n-1
  EXPECT_THROW(variance(std::vector<double>{1}), logic_error);
}

TEST(Stddev, SqrtOfVariance) {
  EXPECT_DOUBLE_EQ(stddev(k_simple), std::sqrt(2.5));
}

TEST(MinMax, Basics) {
  EXPECT_DOUBLE_EQ(min(k_simple), 1.0);
  EXPECT_DOUBLE_EQ(max(k_simple), 5.0);
  EXPECT_THROW(min({}), logic_error);
  EXPECT_THROW(max({}), logic_error);
}

TEST(Quantile, MedianOfOddSample) { EXPECT_DOUBLE_EQ(quantile(k_simple, 0.5), 3.0); }

TEST(Quantile, MedianOfEvenSampleInterpolates) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{1, 2, 3, 4}), 2.5);
}

TEST(Quantile, Extremes) {
  EXPECT_DOUBLE_EQ(quantile(k_simple, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(k_simple, 1.0), 5.0);
}

TEST(Quantile, Type7Interpolation) {
  // numpy.percentile([1,2,3,4], 25) == 1.75 under the default (type-7) rule.
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{1, 2, 3, 4}, 0.25), 1.75);
}

TEST(Quantile, UnsortedInput) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{5, 1, 3, 2, 4}), 3.0);
}

TEST(Quantile, InvalidArgsThrow) {
  EXPECT_THROW(quantile(k_simple, -0.1), logic_error);
  EXPECT_THROW(quantile(k_simple, 1.1), logic_error);
  EXPECT_THROW(quantile({}, 0.5), logic_error);
}

TEST(Quantile, SingleElement) {
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{7}, 0.99), 7.0);
}

TEST(BoxSummary, FiveNumbers) {
  const auto b = summarize_box(k_simple);
  EXPECT_DOUBLE_EQ(b.whisker_low, 1.0);
  EXPECT_DOUBLE_EQ(b.q1, 2.0);
  EXPECT_DOUBLE_EQ(b.median, 3.0);
  EXPECT_DOUBLE_EQ(b.q3, 4.0);
  EXPECT_DOUBLE_EQ(b.whisker_high, 5.0);
  EXPECT_EQ(b.n, 5u);
  EXPECT_DOUBLE_EQ(b.iqr(), 2.0);
}

TEST(BoxSummary, NotchFormula) {
  const auto b = summarize_box(k_simple);
  EXPECT_NEAR(b.notch, 1.57 * 2.0 / std::sqrt(5.0), 1e-12);
}

TEST(BoxSummary, OrderingInvariant) {
  const std::vector<double> xs = {0.9, 0.1, 0.5, 0.7, 0.3, 0.2, 0.8};
  const auto b = summarize_box(xs);
  EXPECT_LE(b.whisker_low, b.q1);
  EXPECT_LE(b.q1, b.median);
  EXPECT_LE(b.median, b.q3);
  EXPECT_LE(b.q3, b.whisker_high);
}

TEST(Sorted, ReturnsSortedCopy) {
  const std::vector<double> xs = {3, 1, 2};
  EXPECT_EQ(sorted(xs), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(xs[0], 3);  // input untouched
}

// Property sweep: for constant samples, every quantile equals the constant
// and variance is zero.
class ConstantSample : public ::testing::TestWithParam<double> {};

TEST_P(ConstantSample, DegenerateStatistics) {
  const std::vector<double> xs(10, GetParam());
  EXPECT_DOUBLE_EQ(mean(xs), GetParam());
  EXPECT_DOUBLE_EQ(variance(xs), 0.0);
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_DOUBLE_EQ(quantile(xs, q), GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Values, ConstantSample, ::testing::Values(-3.5, 0.0, 1.0, 42.0));

}  // namespace
}  // namespace avtk::stats
