// avtk/stats/correlation.h
//
// Pearson and Spearman correlation with significance testing — the machinery
// behind the paper's Fig. 8 (r = -0.87, p = 7e-56) and the reaction-time /
// cumulative-miles correlations of Question 4.
#pragma once

#include <span>
#include <vector>

namespace avtk::stats {

/// A correlation estimate plus its two-sided significance.
struct correlation_result {
  double r = 0.0;        ///< correlation coefficient in [-1, 1]
  double p_value = 1.0;  ///< two-sided p under the t approximation
  double t_stat = 0.0;   ///< t = r * sqrt((n-2)/(1-r^2))
  std::size_t n = 0;
};

/// Pearson product-moment correlation. Requires xs.size() == ys.size() and
/// n >= 3 with non-degenerate variance in both inputs.
correlation_result pearson(std::span<const double> xs, std::span<const double> ys);

/// Covariance (n-1 denominator); requires matched sizes, n >= 2.
double covariance(std::span<const double> xs, std::span<const double> ys);

/// Mid-ranks of a sample (average rank for ties), 1-based.
std::vector<double> ranks(std::span<const double> xs);

}  // namespace avtk::stats
