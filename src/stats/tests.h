// avtk/stats/tests.h
//
// Hypothesis tests and interval estimates: Kolmogorov-Smirnov goodness of
// fit (used to score the Fig. 11/12 distribution fits), exact Poisson rate
// confidence intervals (used for the >90%-significance claims about APM in
// Section V-B), and the Kalra-Paddock "driving to safety" sample-size
// calculation the paper cites as [36].
#pragma once

#include <cstdint>
#include <functional>
#include <span>

namespace avtk::stats {

/// One-sample Kolmogorov-Smirnov test against a continuous CDF.
struct ks_result {
  double statistic = 0.0;  ///< sup |F_n(x) - F(x)|
  double p_value = 1.0;    ///< asymptotic Kolmogorov distribution
  std::size_t n = 0;
};

/// Runs the one-sample KS test; `cdf` must be a proper CDF. Requires a
/// non-empty sample.
ks_result ks_test(std::span<const double> xs, const std::function<double(double)>& cdf);

/// Asymptotic Kolmogorov survival function Q_KS(lambda).
double kolmogorov_q(double lambda);

/// Exact (Garwood) two-sided confidence interval for a Poisson rate given
/// `events` observed over `exposure` units. Bounds are rates (events per
/// unit exposure). `confidence` in (0, 1).
struct rate_interval {
  double lower = 0.0;
  double point = 0.0;
  double upper = 0.0;
};
rate_interval poisson_rate_interval(std::int64_t events, double exposure,
                                    double confidence = 0.95);

/// True when a rate estimate from (events, exposure) is significantly
/// different from `reference_rate` at the given confidence — the form of
/// the paper's ">90% significance" statement for APM comparisons.
bool rate_differs_from(std::int64_t events, double exposure, double reference_rate,
                       double confidence = 0.90);

/// Kalra & Paddock (2016): miles of failure-free driving needed to
/// demonstrate, with confidence `confidence`, that the true failure rate is
/// below `target_rate_per_mile`. (Equation: miles = -ln(1-C) / rate.)
double kalra_paddock_miles(double target_rate_per_mile, double confidence = 0.95);

/// Kalra & Paddock generalization: miles needed to show, at `confidence`,
/// that an observed rate improves on a benchmark rate, assuming the fleet
/// fails at `true_rate_per_mile` (Poisson). Returns the exposure at which
/// the one-sided upper bound of the rate interval drops below the
/// benchmark in expectation.
double kalra_paddock_miles_to_beat(double benchmark_rate_per_mile, double true_rate_per_mile,
                                   double confidence = 0.95);

}  // namespace avtk::stats
