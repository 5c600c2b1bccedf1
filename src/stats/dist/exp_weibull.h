// avtk/stats/dist/exp_weibull.h
//
// Exponentiated-Weibull distribution — the long-tailed reaction-time model
// the paper fits in Section V-A4 ("Exponential-Weibull fit"). CDF:
//   F(x) = [1 - exp(-(x/scale)^shape)]^power
// which reduces to a plain Weibull at power == 1.
#pragma once

#include <span>

namespace avtk::stats {

class exp_weibull_dist {
 public:
  /// Invariant: shape, scale, power all > 0.
  exp_weibull_dist(double shape, double scale, double power);

  double shape() const { return shape_; }
  double scale() const { return scale_; }
  double power() const { return power_; }

  double pdf(double x) const;
  double cdf(double x) const;
  double log_likelihood(std::span<const double> xs) const;

  /// MLE via Nelder-Mead in log-parameter space, seeded from the plain
  /// Weibull fit. Requires n >= 3 strictly positive, non-degenerate samples.
  static exp_weibull_dist fit(std::span<const double> xs);

 private:
  double shape_;
  double scale_;
  double power_;
};

}  // namespace avtk::stats
