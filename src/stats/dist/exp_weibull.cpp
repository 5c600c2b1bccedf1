#include "stats/dist/exp_weibull.h"

#include <cmath>
#include <vector>

#include "stats/dist/weibull.h"
#include "stats/optimize.h"
#include "util/errors.h"

namespace avtk::stats {

exp_weibull_dist::exp_weibull_dist(double shape, double scale, double power)
    : shape_(shape), scale_(scale), power_(power) {
  if (!(shape > 0) || !(scale > 0) || !(power > 0)) {
    throw numeric_error("exp_weibull_dist requires positive parameters");
  }
}

double exp_weibull_dist::cdf(double x) const {
  if (x <= 0) return 0.0;
  const double base = 1.0 - std::exp(-std::pow(x / scale_, shape_));
  return std::pow(base, power_);
}

double exp_weibull_dist::pdf(double x) const {
  if (x <= 0) return 0.0;
  const double z = std::pow(x / scale_, shape_);
  const double e = std::exp(-z);
  const double base = 1.0 - e;
  if (base <= 0) return 0.0;
  return power_ * (shape_ / scale_) * std::pow(x / scale_, shape_ - 1.0) * e *
         std::pow(base, power_ - 1.0);
}

double exp_weibull_dist::log_likelihood(std::span<const double> xs) const {
  double ll = 0;
  for (double x : xs) {
    const double p = pdf(x);
    if (!(p > 0)) return -INFINITY;
    ll += std::log(p);
  }
  return ll;
}

exp_weibull_dist exp_weibull_dist::fit(std::span<const double> xs) {
  if (xs.size() < 3) throw numeric_error("exp_weibull fit requires n >= 3");
  for (double x : xs) {
    if (!(x > 0)) throw numeric_error("exp_weibull fit requires strictly positive samples");
  }

  // Seed from the plain Weibull MLE with power = 1.
  const auto seed = weibull_dist::fit(xs);

  const auto negative_ll = [&](const std::vector<double>& log_params) {
    const double shape = std::exp(log_params[0]);
    const double scale = std::exp(log_params[1]);
    const double power = std::exp(log_params[2]);
    if (shape > 1e3 || scale > 1e6 || power > 1e3) return 1e12;
    const exp_weibull_dist d(shape, scale, power);
    const double ll = d.log_likelihood(xs);
    return std::isfinite(ll) ? -ll : 1e12;
  };

  const auto opt = nelder_mead_minimize(
      negative_ll, {std::log(seed.shape()), std::log(seed.scale()), 0.0}, /*step=*/0.3);
  return exp_weibull_dist(std::exp(opt.x[0]), std::exp(opt.x[1]), std::exp(opt.x[2]));
}

}  // namespace avtk::stats
