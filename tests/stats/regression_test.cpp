#include "stats/regression.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/errors.h"
#include "util/rng.h"

namespace avtk::stats {
namespace {

TEST(FitLinear, ExactLine) {
  const std::vector<double> xs = {0, 1, 2, 3};
  const std::vector<double> ys = {1, 3, 5, 7};  // y = 1 + 2x
  const auto fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.residual_stddev, 0.0, 1e-10);
  EXPECT_NEAR(fit.predict(10.0), 21.0, 1e-10);
}

TEST(FitLinear, KnownNoisyValues) {
  // By hand: sxy = 12, sxx = 10 => slope 1.2, intercept -0.2;
  // SSE = 6.8, syy = 21.2 => R^2 = 1 - 6.8/21.2;
  // se(slope) = sqrt((6.8/3) / 10).
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {2, 1, 4, 3, 7};
  const auto fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 1.2, 1e-12);
  EXPECT_NEAR(fit.intercept, -0.2, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0 - 6.8 / 21.2, 1e-12);
  EXPECT_NEAR(fit.slope_stderr, std::sqrt(6.8 / 3.0 / 10.0), 1e-12);
}

TEST(FitLinear, InvalidInputsThrow) {
  const std::vector<double> one = {1};
  EXPECT_THROW(fit_linear(one, one), logic_error);
  const std::vector<double> xs = {2, 2, 2};
  const std::vector<double> ys = {1, 2, 3};
  EXPECT_THROW(fit_linear(xs, ys), logic_error);  // constant x
  const std::vector<double> mismatched = {1, 2};
  EXPECT_THROW(fit_linear(xs, mismatched), logic_error);
}

TEST(FitLinear, ConstantYGivesZeroSlopeAndR2One) {
  const std::vector<double> xs = {1, 2, 3};
  const std::vector<double> ys = {4, 4, 4};
  const auto fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitLogLog, RecoversPowerLaw) {
  // y = 3 * x^0.7
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = 1; x <= 100; x *= 1.5) {
    xs.push_back(x);
    ys.push_back(3.0 * std::pow(x, 0.7));
  }
  const auto fit = fit_log_log(xs, ys);
  EXPECT_NEAR(fit.slope, 0.7, 1e-10);
  EXPECT_NEAR(std::exp(fit.intercept), 3.0, 1e-8);
}

TEST(FitLogLog, RejectsNonPositive) {
  const std::vector<double> xs = {1, 2, 0.0};
  const std::vector<double> ys = {1, 2, 3};
  EXPECT_THROW(fit_log_log(xs, ys), logic_error);
}

// Property sweep: the fitted line always passes through the centroid.
class CentroidProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CentroidProperty, FitPassesThroughMeanPoint) {
  rng g(GetParam());
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(g.uniform(0, 100));
    ys.push_back(g.uniform(-50, 50));
  }
  double mx = 0;
  double my = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(xs.size());
  my /= static_cast<double>(ys.size());
  const auto fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.predict(mx), my, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CentroidProperty, ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace avtk::stats
