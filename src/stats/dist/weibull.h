// avtk/stats/dist/weibull.h
//
// Two-parameter Weibull distribution with maximum-likelihood fitting — the
// reaction-time model of Fig. 11.
#pragma once

#include <span>

namespace avtk::stats {

/// Weibull(shape k, scale lambda). Invariant: both parameters > 0.
class weibull_dist {
 public:
  weibull_dist(double shape, double scale);

  double shape() const { return shape_; }
  double scale() const { return scale_; }

  double cdf(double x) const;

  /// MLE fit by solving the profile-likelihood shape equation with a
  /// bracketed Newton iteration, then plugging in the closed-form scale.
  /// Requires a sample of at least two strictly positive values that are
  /// not all identical.
  static weibull_dist fit(std::span<const double> xs);

 private:
  double shape_;
  double scale_;
};

}  // namespace avtk::stats
