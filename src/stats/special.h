// avtk/stats/special.h
//
// Special functions backing the distribution fits and hypothesis tests:
// regularized incomplete gamma, regularized incomplete beta, and their
// inverses where needed. Implementations follow the classic series /
// continued-fraction expansions (Numerical Recipes style) with double
// precision tolerances.
#pragma once

namespace avtk::stats {

/// log Gamma(x) for x > 0. Thread-safe: uses lgamma_r where available
/// (std::lgamma races on the global `signgam`), kept here so the library
/// has a single spelling.
double log_gamma(double x);

/// Regularized lower incomplete gamma P(a, x) = gamma(a,x)/Gamma(a),
/// a > 0, x >= 0. P(a,0) = 0; P(a,inf) = 1.
double gamma_p(double a, double x);

/// Inverse of P(a, .): returns x such that P(a, x) = p, for p in [0, 1).
double gamma_p_inverse(double a, double p);

/// Regularized incomplete beta I_x(a, b) for a, b > 0, x in [0, 1].
double beta_inc(double a, double b, double x);

/// Standard normal CDF and its inverse (Acklam's rational approximation,
/// refined by one Halley step; |error| < 1e-12 over (0,1)).
double normal_cdf(double x);
double normal_quantile(double p);

/// Two-sided p-value for a Student-t statistic with `dof` degrees of
/// freedom: P(|T| >= |t|).
double student_t_two_sided_p(double t, double dof);

/// Chi-square CDF with k degrees of freedom.
double chi_squared_cdf(double x, double k);

/// Quantile of the chi-square distribution with k degrees of freedom.
double chi_squared_quantile(double p, double k);

}  // namespace avtk::stats
