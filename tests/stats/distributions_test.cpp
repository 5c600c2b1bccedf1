#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/descriptive.h"
#include "stats/dist/exp_weibull.h"
#include "stats/dist/exponential.h"
#include "stats/dist/weibull.h"
#include "util/errors.h"
#include "util/rng.h"

namespace avtk::stats {
namespace {

// ------------------------------------------------------------ exponential

TEST(Exponential, FitRecoversMean) {
  rng g(31);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(g.exponential(6.0));
  EXPECT_NEAR(exponential_dist::fit(xs).mean(), 6.0, 0.15);
}

TEST(Exponential, FitRejectsBadInput) {
  EXPECT_THROW(exponential_dist::fit({}), numeric_error);
  EXPECT_THROW(exponential_dist::fit(std::vector<double>{1.0, -2.0}), numeric_error);
  EXPECT_THROW(exponential_dist::fit(std::vector<double>{0.0, 0.0}), numeric_error);
  EXPECT_THROW(exponential_dist(-1.0), numeric_error);
}

// ---------------------------------------------------------------- weibull

TEST(Weibull, ReducesToExponentialAtShapeOne) {
  const weibull_dist w(1.0, 2.0);
  for (const double x : {0.1, 1.0, 3.0}) {
    EXPECT_NEAR(w.cdf(x), 1.0 - std::exp(-x / 2.0), 1e-12);
  }
}

TEST(Weibull, CdfMonotone) {
  const weibull_dist w(0.8, 1.2);
  double prev = -1;
  for (double x = 0; x < 10; x += 0.25) {
    const double c = w.cdf(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(Weibull, InvalidParamsThrow) {
  EXPECT_THROW(weibull_dist(0.0, 1.0), numeric_error);
  EXPECT_THROW(weibull_dist(1.0, -1.0), numeric_error);
}

TEST(Weibull, FitRejectsBadInput) {
  EXPECT_THROW(weibull_dist::fit(std::vector<double>{1.0}), numeric_error);
  EXPECT_THROW(weibull_dist::fit(std::vector<double>{1.0, -1.0}), numeric_error);
  EXPECT_THROW(weibull_dist::fit(std::vector<double>{2.0, 2.0, 2.0}), numeric_error);
}

// Parameterized fit-recovery sweep across the shape/scale grid the
// reaction-time models live in.
struct weibull_case {
  double shape;
  double scale;
};

class WeibullFitRecovery : public ::testing::TestWithParam<weibull_case> {};

TEST_P(WeibullFitRecovery, MleRecoversParameters) {
  const auto [shape, scale] = GetParam();
  rng g(1000 + static_cast<std::uint64_t>(shape * 100) + static_cast<std::uint64_t>(scale * 10));
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(g.exponentiated_weibull(shape, scale, 1.0));
  const auto fit = weibull_dist::fit(xs);
  EXPECT_NEAR(fit.shape(), shape, shape * 0.05);
  EXPECT_NEAR(fit.scale(), scale, scale * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Grid, WeibullFitRecovery,
                         ::testing::Values(weibull_case{0.8, 0.5}, weibull_case{1.0, 1.0},
                                           weibull_case{1.3, 0.9}, weibull_case{1.6, 0.85},
                                           weibull_case{2.5, 2.0}, weibull_case{4.0, 0.3}));

// ----------------------------------------------------------- exp-weibull

// Closed-form inverse of F(x) = [1 - exp(-(x/scale)^shape)]^power.
double quantile_of(const exp_weibull_dist& d, double p) {
  return d.scale() * std::pow(-std::log(1.0 - std::pow(p, 1.0 / d.power())), 1.0 / d.shape());
}

TEST(ExpWeibull, ReducesToWeibullAtPowerOne) {
  const exp_weibull_dist ew(1.5, 0.8, 1.0);
  const weibull_dist w(1.5, 0.8);
  for (const double x : {0.1, 0.5, 1.0, 2.0}) {
    const double z = x / 0.8;
    EXPECT_NEAR(ew.pdf(x), 1.5 / 0.8 * std::pow(z, 0.5) * std::exp(-std::pow(z, 1.5)), 1e-10);
    EXPECT_NEAR(ew.cdf(x), w.cdf(x), 1e-10);
  }
}

TEST(ExpWeibull, PdfIntegratesToOne) {
  const exp_weibull_dist d(1.4, 0.9, 1.8);
  // Composite trapezoid over [0, q(1-1e-9)].
  const double hi = quantile_of(d, 1.0 - 1e-9);
  const int n = 20000;
  double acc = 0;
  for (int i = 0; i <= n; ++i) {
    const double x = hi * i / n;
    acc += d.pdf(x) * (i == 0 || i == n ? 0.5 : 1.0);
  }
  acc *= hi / n;
  EXPECT_NEAR(acc, 1.0, 1e-4);
}

TEST(ExpWeibull, FitImprovesOnWeibullForLongTailedData) {
  rng g(48);
  std::vector<double> xs;
  for (int i = 0; i < 3000; ++i) xs.push_back(g.exponentiated_weibull(0.9, 0.5, 2.5));
  const auto w = weibull_dist::fit(xs);
  const auto ew = exp_weibull_dist::fit(xs);
  // A power-1 exponentiated Weibull is the plain Weibull fit.
  const exp_weibull_dist w_as_ew(w.shape(), w.scale(), 1.0);
  EXPECT_GE(ew.log_likelihood(xs), w_as_ew.log_likelihood(xs) - 1e-6);
}

TEST(ExpWeibull, FitRecoversParametersRoughly) {
  rng g(49);
  std::vector<double> xs;
  for (int i = 0; i < 30000; ++i) xs.push_back(g.exponentiated_weibull(1.5, 0.8, 2.0));
  const auto fit = exp_weibull_dist::fit(xs);
  // The three-parameter family has a shallow likelihood ridge; require the
  // fitted distribution to match in quantiles rather than raw parameters.
  const exp_weibull_dist truth(1.5, 0.8, 2.0);
  for (const double p : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    EXPECT_NEAR(quantile_of(fit, p), quantile_of(truth, p), quantile_of(truth, p) * 0.05) << p;
  }
}

TEST(ExpWeibull, InvalidInputsThrow) {
  EXPECT_THROW(exp_weibull_dist(0, 1, 1), numeric_error);
  EXPECT_THROW(exp_weibull_dist::fit(std::vector<double>{1.0, 2.0}), numeric_error);
  EXPECT_THROW(exp_weibull_dist::fit(std::vector<double>{1.0, 2.0, -3.0}), numeric_error);
}

}  // namespace
}  // namespace avtk::stats
