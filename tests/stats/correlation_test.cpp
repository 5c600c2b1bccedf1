#include "stats/correlation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/errors.h"
#include "util/rng.h"

namespace avtk::stats {
namespace {

TEST(Pearson, PerfectPositive) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {2, 4, 6, 8};
  const auto r = pearson(xs, ys);
  EXPECT_NEAR(r.r, 1.0, 1e-12);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(Pearson, PerfectNegative) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, ys).r, -1.0, 1e-12);
}

TEST(Pearson, KnownValue) {
  // By hand: sxy = 12, sxx = 10, syy = 21.2 => r = 12 / sqrt(212).
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {2, 1, 4, 3, 7};
  const auto r = pearson(xs, ys);
  EXPECT_NEAR(r.r, 12.0 / std::sqrt(212.0), 1e-12);
  // t = r * sqrt(3 / (1 - r^2)) ~ 2.52; p for dof 3 sits near 0.086.
  EXPECT_GT(r.p_value, 0.05);
  EXPECT_LT(r.p_value, 0.15);
}

TEST(Pearson, IndependentSamplesNearZero) {
  rng g(17);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 5000; ++i) {
    xs.push_back(g.normal(0.0, 1.0));
    ys.push_back(g.normal(0.0, 1.0));
  }
  const auto r = pearson(xs, ys);
  EXPECT_LT(std::fabs(r.r), 0.05);
  EXPECT_GT(r.p_value, 0.001);
}

TEST(Pearson, InvalidInputsThrow) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> b = {1, 2};
  EXPECT_THROW(pearson(a, b), logic_error);
  const std::vector<double> constant = {5, 5, 5};
  EXPECT_THROW(pearson(a, constant), logic_error);
  const std::vector<double> two = {1, 2};
  EXPECT_THROW(pearson(two, two), logic_error);
}

TEST(Covariance, KnownValue) {
  const std::vector<double> xs = {1, 2, 3};
  const std::vector<double> ys = {4, 6, 8};
  EXPECT_DOUBLE_EQ(covariance(xs, ys), 2.0);
}

TEST(Ranks, NoTies) {
  const std::vector<double> xs = {30, 10, 20};
  EXPECT_EQ(ranks(xs), (std::vector<double>{3, 1, 2}));
}

TEST(Ranks, TiesGetAverageRank) {
  const std::vector<double> xs = {1, 2, 2, 3};
  EXPECT_EQ(ranks(xs), (std::vector<double>{1, 2.5, 2.5, 4}));
}

TEST(Pearson, TStatisticConsistentWithR) {
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6};
  const std::vector<double> ys = {1.1, 1.9, 3.2, 3.8, 5.1, 6.2};
  const auto r = pearson(xs, ys);
  const double expected_t = r.r * std::sqrt((6 - 2) / (1 - r.r * r.r));
  EXPECT_NEAR(r.t_stat, expected_t, 1e-12);
}

}  // namespace
}  // namespace avtk::stats
