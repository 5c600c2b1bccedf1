// avtk/stats/optimize.h
//
// Optimizers used by the distribution MLE fits: Nelder-Mead simplex for
// the 2/3-parameter Weibull-family likelihoods and a safeguarded Newton
// root-finder for the Weibull shape equation.
#pragma once

#include <functional>
#include <vector>

namespace avtk::stats {

/// Result of a minimization.
struct optimum {
  std::vector<double> x;   ///< argmin
  double value = 0.0;      ///< f(argmin)
  int iterations = 0;
  bool converged = false;
};

/// Nelder-Mead simplex minimization from `start`, with initial per-axis
/// simplex displacement `step`. Standard (1, 2, 0.5, 0.5) coefficients.
optimum nelder_mead_minimize(const std::function<double(const std::vector<double>&)>& f,
                             std::vector<double> start, double step = 0.25,
                             double tolerance = 1e-10, int max_iterations = 2000);

/// 1-D Newton root-finder with bisection fallback on bracket [lo, hi]:
/// finds x with g(x) = 0 given dg. Used by the Weibull shape MLE equation.
double newton_root(const std::function<double(double)>& g, const std::function<double(double)>& dg,
                   double x0, double lo, double hi, double tolerance = 1e-12,
                   int max_iterations = 200);

}  // namespace avtk::stats
