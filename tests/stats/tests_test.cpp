#include "stats/tests.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/dist/weibull.h"
#include "util/errors.h"
#include "util/rng.h"

namespace avtk::stats {
namespace {

TEST(KolmogorovQ, KnownValues) {
  EXPECT_DOUBLE_EQ(kolmogorov_q(0.0), 1.0);
  // Q(1.36) ~ 0.049 (the classic 5% critical value).
  EXPECT_NEAR(kolmogorov_q(1.36), 0.049, 0.002);
  EXPECT_LT(kolmogorov_q(2.0), 0.001);
}

TEST(KsTest, AcceptsCorrectDistribution) {
  rng g(61);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(g.exponential(2.0));
  const auto r = ks_test(xs, [](double x) { return 1.0 - std::exp(-x / 2.0); });
  EXPECT_GT(r.p_value, 0.01);
  EXPECT_LT(r.statistic, 0.05);
}

TEST(KsTest, RejectsWrongDistribution) {
  rng g(62);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(g.exponential(2.0));
  // Exponential with mean 5 instead of 2.
  const auto r = ks_test(xs, [](double x) { return 1.0 - std::exp(-x / 5.0); });
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(KsTest, DistinguishesWeibullShapes) {
  rng g(63);
  std::vector<double> xs;
  for (int i = 0; i < 3000; ++i) xs.push_back(g.exponentiated_weibull(2.5, 1.0, 1.0));
  const weibull_dist right(2.5, 1.0);
  const weibull_dist wrong(1.0, 1.0);
  EXPECT_GT(ks_test(xs, [&](double x) { return right.cdf(x); }).p_value, 0.01);
  EXPECT_LT(ks_test(xs, [&](double x) { return wrong.cdf(x); }).p_value, 1e-10);
}

TEST(KsTest, EmptySampleThrows) {
  EXPECT_THROW(ks_test({}, [](double) { return 0.5; }), logic_error);
}

TEST(PoissonRateInterval, ZeroEvents) {
  const auto ci = poisson_rate_interval(0, 100.0, 0.95);
  EXPECT_DOUBLE_EQ(ci.lower, 0.0);
  EXPECT_DOUBLE_EQ(ci.point, 0.0);
  // Garwood upper bound for 0 events at 95%: chi2(0.975, 2)/2 = 3.689.../exposure
  EXPECT_NEAR(ci.upper, 3.6889 / 100.0, 1e-3);
}

TEST(PoissonRateInterval, CoversPointEstimate) {
  const auto ci = poisson_rate_interval(25, 1000.0, 0.95);
  EXPECT_NEAR(ci.point, 0.025, 1e-12);
  EXPECT_LT(ci.lower, ci.point);
  EXPECT_GT(ci.upper, ci.point);
}

TEST(PoissonRateInterval, NarrowsWithConfidence) {
  const auto wide = poisson_rate_interval(25, 1000.0, 0.99);
  const auto narrow = poisson_rate_interval(25, 1000.0, 0.80);
  EXPECT_LT(wide.lower, narrow.lower);
  EXPECT_GT(wide.upper, narrow.upper);
}

TEST(PoissonRateInterval, KnownGarwoodValues) {
  // k=5: 95% interval bounds 1.6235 .. 11.668 (events), scaled by exposure.
  const auto ci = poisson_rate_interval(5, 1.0, 0.95);
  EXPECT_NEAR(ci.lower, 1.6235, 1e-3);
  EXPECT_NEAR(ci.upper, 11.6683, 1e-3);
}

TEST(PoissonRateInterval, InvalidInputsThrow) {
  EXPECT_THROW(poisson_rate_interval(-1, 10.0), logic_error);
  EXPECT_THROW(poisson_rate_interval(1, 0.0), logic_error);
  EXPECT_THROW(poisson_rate_interval(1, 10.0, 1.5), logic_error);
}

TEST(RateDiffers, DetectsClearDifference) {
  // 42 accidents over ~1.1M miles vs the human rate 2e-6: clearly above.
  EXPECT_TRUE(rate_differs_from(42, 1116605.0, 2e-6, 0.90));
}

TEST(RateDiffers, AcceptsCompatibleRate) {
  // 2 events over 1M miles vs rate 2e-6 (expected 2.2): compatible.
  EXPECT_FALSE(rate_differs_from(2, 1.1e6, 2e-6, 0.90));
}

TEST(KalraPaddock, FailureFreeMiles) {
  // Demonstrating better than the human fatality-ish rate 1.09e-8/mile at
  // 95% needs ~275M failure-free miles (the paper [36]'s headline).
  EXPECT_NEAR(kalra_paddock_miles(1.09e-8, 0.95), 2.748e8, 1e6);
}

TEST(KalraPaddock, ScalesInverselyWithRate) {
  EXPECT_NEAR(kalra_paddock_miles(2e-6, 0.95) * 2, kalra_paddock_miles(1e-6, 0.95), 1.0);
}

TEST(KalraPaddockMilesToBeat, MoreMilesForCloserRates) {
  const double easy = kalra_paddock_miles_to_beat(1e-4, 1e-5, 0.95);
  const double hard = kalra_paddock_miles_to_beat(1e-4, 8e-5, 0.95);
  EXPECT_GT(hard, easy);
}

TEST(KalraPaddockMilesToBeat, UpperBoundActuallyBeatsBenchmark) {
  const double benchmark = 1e-4;
  const double truth = 2e-5;
  const double miles = kalra_paddock_miles_to_beat(benchmark, truth, 0.95);
  const auto k = static_cast<std::int64_t>(std::llround(truth * miles));
  EXPECT_LE(poisson_rate_interval(k, miles, 0.95).upper, benchmark * 1.01);
}

TEST(KalraPaddockMilesToBeat, InvalidArgsThrow) {
  EXPECT_THROW(kalra_paddock_miles_to_beat(1e-5, 1e-4), logic_error);
  EXPECT_THROW(kalra_paddock_miles(0.0), logic_error);
}

}  // namespace
}  // namespace avtk::stats
