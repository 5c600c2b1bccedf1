#include "stats/special.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/errors.h"

namespace avtk::stats {
namespace {

TEST(LogGamma, KnownValues) {
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-14);
  EXPECT_NEAR(log_gamma(2.0), 0.0, 1e-14);
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-12);
  EXPECT_NEAR(log_gamma(0.5), std::log(std::sqrt(M_PI)), 1e-12);
  EXPECT_THROW(log_gamma(0.0), numeric_error);
}

TEST(GammaP, BoundaryValues) {
  EXPECT_DOUBLE_EQ(gamma_p(2.0, 0.0), 0.0);
  EXPECT_NEAR(gamma_p(2.0, 1e9), 1.0, 1e-12);
}

TEST(GammaP, KnownValues) {
  // P(1, x) = 1 - exp(-x).
  EXPECT_NEAR(gamma_p(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(gamma_p(1.0, 2.5), 1.0 - std::exp(-2.5), 1e-12);
  // scipy.special.gammainc(2.5, 1.3) = 0.27555794altro... check via Q.
  EXPECT_NEAR(gamma_p(0.5, 0.5), std::erf(std::sqrt(0.5)), 1e-10);
}

TEST(GammaPInverse, RoundTrip) {
  for (const double a : {0.5, 1.0, 3.0, 12.0}) {
    for (const double p : {0.01, 0.25, 0.5, 0.9, 0.99}) {
      const double x = gamma_p_inverse(a, p);
      EXPECT_NEAR(gamma_p(a, x), p, 1e-8) << "a=" << a << " p=" << p;
    }
  }
  EXPECT_DOUBLE_EQ(gamma_p_inverse(2.0, 0.0), 0.0);
  EXPECT_THROW(gamma_p_inverse(2.0, 1.0), numeric_error);
}

TEST(BetaInc, BoundaryValues) {
  EXPECT_DOUBLE_EQ(beta_inc(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(beta_inc(2.0, 3.0, 1.0), 1.0);
}

TEST(BetaInc, SymmetricCase) {
  // I_{1/2}(a, a) = 1/2 by symmetry.
  for (const double a : {0.5, 1.0, 2.0, 7.0}) {
    EXPECT_NEAR(beta_inc(a, a, 0.5), 0.5, 1e-10);
  }
}

TEST(BetaInc, UniformSpecialCase) {
  // I_x(1, 1) = x.
  EXPECT_NEAR(beta_inc(1.0, 1.0, 0.37), 0.37, 1e-12);
}

TEST(BetaInc, ReflectionIdentity) {
  // I_x(a,b) = 1 - I_{1-x}(b,a).
  EXPECT_NEAR(beta_inc(2.5, 4.0, 0.3), 1.0 - beta_inc(4.0, 2.5, 0.7), 1e-10);
}

TEST(BetaInc, InvalidArgsThrow) {
  EXPECT_THROW(beta_inc(0.0, 1.0, 0.5), numeric_error);
  EXPECT_THROW(beta_inc(1.0, 1.0, 1.5), numeric_error);
}

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-14);
  EXPECT_NEAR(normal_cdf(1.96), 0.9750021048517795, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.96), 1.0 - 0.9750021048517795, 1e-9);
}

TEST(NormalQuantile, RoundTripWithCdf) {
  for (const double p : {0.001, 0.01, 0.2, 0.5, 0.8, 0.975, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-10) << p;
  }
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-8);
  EXPECT_THROW(normal_quantile(0.0), numeric_error);
  EXPECT_THROW(normal_quantile(1.0), numeric_error);
}

TEST(StudentT, LargeDofApproachesNormal) {
  // Two-sided p for t = 1.96, dof -> inf, should approach 0.05.
  EXPECT_NEAR(student_t_two_sided_p(1.96, 1e6), 0.05, 1e-3);
}

TEST(StudentT, KnownSmallDofValue) {
  // dof=1 (Cauchy): P(|T| >= 1) = 0.5.
  EXPECT_NEAR(student_t_two_sided_p(1.0, 1.0), 0.5, 1e-10);
}

TEST(StudentT, SymmetryInSign) {
  EXPECT_NEAR(student_t_two_sided_p(2.3, 7.0), student_t_two_sided_p(-2.3, 7.0), 1e-14);
}

TEST(StudentT, ZeroStatisticGivesPOne) {
  EXPECT_NEAR(student_t_two_sided_p(0.0, 5.0), 1.0, 1e-12);
}

TEST(ChiSquared, CdfKnownValues) {
  // chi2 with k=2 is exponential(mean 2): CDF(x) = 1 - exp(-x/2).
  EXPECT_NEAR(chi_squared_cdf(2.0, 2.0), 1.0 - std::exp(-1.0), 1e-10);
  EXPECT_DOUBLE_EQ(chi_squared_cdf(-1.0, 2.0), 0.0);
}

TEST(ChiSquared, QuantileRoundTrip) {
  for (const double k : {1.0, 2.0, 10.0}) {
    for (const double p : {0.05, 0.5, 0.95}) {
      EXPECT_NEAR(chi_squared_cdf(chi_squared_quantile(p, k), k), p, 1e-7);
    }
  }
}

TEST(ChiSquared, KnownCriticalValue) {
  // chi2_{0.95, 1} = 3.841458820694124.
  EXPECT_NEAR(chi_squared_quantile(0.95, 1.0), 3.841458820694124, 1e-6);
}

}  // namespace
}  // namespace avtk::stats
