// avtk/stats/regression.h
//
// Simple ordinary-least-squares linear regression, including the log-log
// fits used in Figs. 5 and 9 (cumulative disengagements vs. miles, DPM vs.
// cumulative miles).
#pragma once

#include <span>

namespace avtk::stats {

/// y = intercept + slope * x fitted by OLS.
struct linear_fit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
  double slope_stderr = 0.0;
  double intercept_stderr = 0.0;
  double residual_stddev = 0.0;  ///< sqrt(SSE / (n - 2))
  std::size_t n = 0;

  double predict(double x) const { return intercept + slope * x; }
};

/// Fits y on x. Requires matched sizes, n >= 2, and non-constant x.
/// Standard errors require n >= 3 (0 is reported for n == 2).
linear_fit fit_linear(std::span<const double> xs, std::span<const double> ys);

/// Fits log(y) on log(x): a power law y = exp(intercept) * x^slope.
/// Requires strictly positive xs and ys.
linear_fit fit_log_log(std::span<const double> xs, std::span<const double> ys);

}  // namespace avtk::stats
