// avtk/stats/dist/exponential.h
//
// Exponential distribution and the MLE fit used for the collision-speed
// distributions of Fig. 12.
#pragma once

#include <span>

namespace avtk::stats {

/// Exponential(mean); rate = 1/mean. Invariant: mean > 0.
class exponential_dist {
 public:
  explicit exponential_dist(double mean);

  double mean() const { return mean_; }
  double rate() const { return 1.0 / mean_; }

  /// MLE fit: mean = sample mean. Requires a non-empty, non-negative
  /// sample with positive mean.
  static exponential_dist fit(std::span<const double> xs);

 private:
  double mean_;
};

}  // namespace avtk::stats
