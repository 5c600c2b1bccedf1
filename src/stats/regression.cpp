#include "stats/regression.h"

#include <cmath>
#include <vector>

#include "stats/descriptive.h"
#include "stats/special.h"
#include "util/errors.h"

namespace avtk::stats {

linear_fit fit_linear(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size()) throw logic_error("fit_linear requires matched sizes");
  if (xs.size() < 2) throw logic_error("fit_linear requires n >= 2");

  const double n = static_cast<double>(xs.size());
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxx = 0;
  double sxy = 0;
  double syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx == 0) throw logic_error("fit_linear requires non-constant x");

  linear_fit fit;
  fit.n = xs.size();
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;

  double sse = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double r = ys[i] - fit.predict(xs[i]);
    sse += r * r;
  }
  fit.r_squared = syy == 0 ? 1.0 : 1.0 - sse / syy;

  if (xs.size() >= 3) {
    const double sigma2 = sse / (n - 2.0);
    fit.residual_stddev = std::sqrt(sigma2);
    fit.slope_stderr = std::sqrt(sigma2 / sxx);
    fit.intercept_stderr = std::sqrt(sigma2 * (1.0 / n + mx * mx / sxx));
  }
  return fit;
}

linear_fit fit_log_log(std::span<const double> xs, std::span<const double> ys) {
  std::vector<double> lx;
  std::vector<double> ly;
  lx.reserve(xs.size());
  ly.reserve(ys.size());
  if (xs.size() != ys.size()) throw logic_error("fit_log_log requires matched sizes");
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (!(xs[i] > 0) || !(ys[i] > 0)) {
      throw logic_error("fit_log_log requires strictly positive samples");
    }
    lx.push_back(std::log(xs[i]));
    ly.push_back(std::log(ys[i]));
  }
  return fit_linear(lx, ly);
}

}  // namespace avtk::stats
