// avtk/stats/descriptive.h
//
// Descriptive statistics over samples: moments, order statistics, and the
// box-plot summaries (quartiles, notched medians, whiskers) used by the
// paper's Figs. 4, 7 and 10.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace avtk::stats {

/// Arithmetic mean; throws avtk::logic_error on an empty sample.
double mean(std::span<const double> xs);

/// Unbiased sample variance (n-1 denominator); requires n >= 2.
double variance(std::span<const double> xs);

/// Sample standard deviation; requires n >= 2.
double stddev(std::span<const double> xs);

/// Minimum / maximum; throw on empty samples.
double min(std::span<const double> xs);
double max(std::span<const double> xs);

/// Linear-interpolation quantile (type 7, the numpy/R default).
/// `q` in [0, 1]; throws on an empty sample or q outside [0, 1].
double quantile(std::span<const double> xs, double q);

/// Median = quantile(xs, 0.5).
double median(std::span<const double> xs);

/// Five-number summary plus notch half-width, as drawn in the paper's box
/// plots. Whiskers here are sample min/max ("whiskers show max/mins" per
/// the paper's captions), not 1.5*IQR fences.
struct box_summary {
  double whisker_low = 0;   ///< sample minimum
  double q1 = 0;            ///< 25th percentile
  double median = 0;
  double q3 = 0;            ///< 75th percentile
  double whisker_high = 0;  ///< sample maximum
  double notch = 0;         ///< 1.57 * IQR / sqrt(n): 95% CI half-width on the median
  std::size_t n = 0;

  double iqr() const { return q3 - q1; }
};

/// Computes the box summary; throws on an empty sample.
box_summary summarize_box(std::span<const double> xs);

/// Returns a sorted copy.
std::vector<double> sorted(std::span<const double> xs);

}  // namespace avtk::stats
