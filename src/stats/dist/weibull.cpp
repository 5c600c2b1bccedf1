#include "stats/dist/weibull.h"

#include <cmath>

#include "stats/optimize.h"
#include "util/errors.h"

namespace avtk::stats {

weibull_dist::weibull_dist(double shape, double scale) : shape_(shape), scale_(scale) {
  if (!(shape > 0) || !(scale > 0)) {
    throw numeric_error("weibull_dist requires positive shape and scale");
  }
}

double weibull_dist::cdf(double x) const {
  if (x <= 0) return 0.0;
  return 1.0 - std::exp(-std::pow(x / scale_, shape_));
}

weibull_dist weibull_dist::fit(std::span<const double> xs) {
  if (xs.size() < 2) throw numeric_error("weibull fit requires n >= 2");
  double log_sum = 0;
  bool all_equal = true;
  for (double x : xs) {
    if (!(x > 0)) throw numeric_error("weibull fit requires strictly positive samples");
    if (x != xs[0]) all_equal = false;
    log_sum += std::log(x);
  }
  if (all_equal) throw numeric_error("weibull fit requires non-degenerate samples");
  const double n = static_cast<double>(xs.size());
  const double mean_log = log_sum / n;

  // Profile likelihood equation in the shape k:
  //   g(k) = sum(x^k ln x) / sum(x^k) - 1/k - mean(ln x) = 0
  const auto g = [&](double k) {
    double skx = 0;    // sum x^k
    double skxl = 0;   // sum x^k ln x
    for (double x : xs) {
      const double xk = std::pow(x, k);
      skx += xk;
      skxl += xk * std::log(x);
    }
    return skxl / skx - 1.0 / k - mean_log;
  };
  const auto dg = [&](double k) {
    double skx = 0;
    double skxl = 0;
    double skxl2 = 0;  // sum x^k (ln x)^2
    for (double x : xs) {
      const double lx = std::log(x);
      const double xk = std::pow(x, k);
      skx += xk;
      skxl += xk * lx;
      skxl2 += xk * lx * lx;
    }
    const double ratio = skxl / skx;
    return (skxl2 / skx - ratio * ratio) + 1.0 / (k * k);
  };

  const double k = newton_root(g, dg, /*x0=*/1.2, /*lo=*/1e-3, /*hi=*/64.0);
  double skx = 0;
  for (double x : xs) skx += std::pow(x, k);
  const double lambda = std::pow(skx / n, 1.0 / k);
  return weibull_dist(k, lambda);
}

}  // namespace avtk::stats
