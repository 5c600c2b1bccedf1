#include "stats/tests.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/descriptive.h"
#include "stats/special.h"
#include "util/errors.h"

namespace avtk::stats {

double kolmogorov_q(double lambda) {
  if (lambda <= 0) return 1.0;
  // Q(lambda) = 2 * sum_{j>=1} (-1)^{j-1} exp(-2 j^2 lambda^2)
  double sum = 0.0;
  double sign = 1.0;
  for (int j = 1; j <= 100; ++j) {
    const double term = std::exp(-2.0 * j * j * lambda * lambda);
    sum += sign * term;
    if (term < 1e-16) break;
    sign = -sign;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

ks_result ks_test(std::span<const double> xs, const std::function<double(double)>& cdf) {
  if (xs.empty()) throw logic_error("ks_test on empty sample");
  const auto s = sorted(xs);
  const double n = static_cast<double>(s.size());
  double d = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double f = cdf(s[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max({d, std::fabs(f - lo), std::fabs(hi - f)});
  }
  ks_result out;
  out.statistic = d;
  out.n = s.size();
  const double sqrt_n = std::sqrt(n);
  // Stephens' small-sample correction.
  out.p_value = kolmogorov_q((sqrt_n + 0.12 + 0.11 / sqrt_n) * d);
  return out;
}

rate_interval poisson_rate_interval(std::int64_t events, double exposure, double confidence) {
  if (events < 0) throw logic_error("poisson_rate_interval requires events >= 0");
  if (!(exposure > 0)) throw logic_error("poisson_rate_interval requires exposure > 0");
  if (!(confidence > 0) || !(confidence < 1)) {
    throw logic_error("poisson_rate_interval requires confidence in (0,1)");
  }
  const double alpha = 1.0 - confidence;
  rate_interval out;
  out.point = static_cast<double>(events) / exposure;
  // Garwood: lower = chi2(alpha/2, 2k)/2, upper = chi2(1-alpha/2, 2k+2)/2.
  out.lower = events == 0
                  ? 0.0
                  : chi_squared_quantile(alpha / 2.0, 2.0 * static_cast<double>(events)) / 2.0 /
                        exposure;
  out.upper = chi_squared_quantile(1.0 - alpha / 2.0, 2.0 * static_cast<double>(events) + 2.0) /
              2.0 / exposure;
  return out;
}

bool rate_differs_from(std::int64_t events, double exposure, double reference_rate,
                       double confidence) {
  const auto ci = poisson_rate_interval(events, exposure, confidence);
  return reference_rate < ci.lower || reference_rate > ci.upper;
}

double kalra_paddock_miles(double target_rate_per_mile, double confidence) {
  if (!(target_rate_per_mile > 0)) throw logic_error("kalra_paddock requires rate > 0");
  if (!(confidence > 0) || !(confidence < 1)) {
    throw logic_error("kalra_paddock requires confidence in (0,1)");
  }
  return -std::log(1.0 - confidence) / target_rate_per_mile;
}

double kalra_paddock_miles_to_beat(double benchmark_rate_per_mile, double true_rate_per_mile,
                                   double confidence) {
  if (!(benchmark_rate_per_mile > true_rate_per_mile)) {
    throw logic_error("miles_to_beat requires true rate below benchmark");
  }
  if (!(true_rate_per_mile >= 0)) throw logic_error("miles_to_beat requires true rate >= 0");
  // Search for the smallest exposure M such that the expected one-sided
  // upper bound of the Poisson interval at k = true_rate*M events drops
  // below the benchmark.
  double lo = 1.0;
  double hi = 1.0;
  const auto upper_bound_at = [&](double miles) {
    const auto k = static_cast<std::int64_t>(std::llround(true_rate_per_mile * miles));
    return poisson_rate_interval(k, miles, confidence).upper;
  };
  while (upper_bound_at(hi) > benchmark_rate_per_mile) {
    hi *= 2.0;
    if (hi > 1e15) throw numeric_error("miles_to_beat failed to bracket");
  }
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (upper_bound_at(mid) > benchmark_rate_per_mile) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

}  // namespace avtk::stats
