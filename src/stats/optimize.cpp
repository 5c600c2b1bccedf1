#include "stats/optimize.h"

#include <algorithm>
#include <cmath>

#include "util/errors.h"

namespace avtk::stats {

optimum nelder_mead_minimize(const std::function<double(const std::vector<double>&)>& f,
                             std::vector<double> start, double step, double tolerance,
                             int max_iterations) {
  const std::size_t n = start.size();
  if (n == 0) throw logic_error("nelder_mead requires at least one dimension");

  // Build the initial simplex: start plus one displaced vertex per axis.
  std::vector<std::vector<double>> simplex;
  simplex.reserve(n + 1);
  simplex.push_back(start);
  for (std::size_t i = 0; i < n; ++i) {
    auto v = start;
    v[i] += (v[i] != 0.0) ? step * std::fabs(v[i]) : step;
    simplex.push_back(std::move(v));
  }
  std::vector<double> values(n + 1);
  for (std::size_t i = 0; i <= n; ++i) values[i] = f(simplex[i]);

  constexpr double alpha = 1.0;   // reflection
  constexpr double gamma = 2.0;   // expansion
  constexpr double rho = 0.5;     // contraction
  constexpr double sigma = 0.5;   // shrink

  optimum result;
  for (int iter = 0; iter < max_iterations; ++iter) {
    result.iterations = iter + 1;

    // Order vertices by value.
    std::vector<std::size_t> order(n + 1);
    for (std::size_t i = 0; i <= n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
    {
      std::vector<std::vector<double>> s2(n + 1);
      std::vector<double> v2(n + 1);
      for (std::size_t i = 0; i <= n; ++i) {
        s2[i] = simplex[order[i]];
        v2[i] = values[order[i]];
      }
      simplex = std::move(s2);
      values = std::move(v2);
    }

    if (std::fabs(values[n] - values[0]) <
        tolerance * (std::fabs(values[0]) + std::fabs(values[n]) + 1e-30)) {
      result.converged = true;
      break;
    }

    // Centroid of all but the worst vertex.
    std::vector<double> centroid(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) centroid[j] += simplex[i][j];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    const auto blend = [&](const std::vector<double>& from, double coeff) {
      std::vector<double> out(n);
      for (std::size_t j = 0; j < n; ++j) out[j] = centroid[j] + coeff * (centroid[j] - from[j]);
      return out;
    };

    const auto reflected = blend(simplex[n], alpha);
    const double fr = f(reflected);
    if (fr < values[0]) {
      const auto expanded = blend(simplex[n], gamma);
      const double fe = f(expanded);
      if (fe < fr) {
        simplex[n] = expanded;
        values[n] = fe;
      } else {
        simplex[n] = reflected;
        values[n] = fr;
      }
    } else if (fr < values[n - 1]) {
      simplex[n] = reflected;
      values[n] = fr;
    } else {
      const auto contracted = blend(simplex[n], -rho);
      const double fc = f(contracted);
      if (fc < values[n]) {
        simplex[n] = contracted;
        values[n] = fc;
      } else {
        // Shrink towards the best vertex.
        for (std::size_t i = 1; i <= n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            simplex[i][j] = simplex[0][j] + sigma * (simplex[i][j] - simplex[0][j]);
          }
          values[i] = f(simplex[i]);
        }
      }
    }
  }

  const auto best = static_cast<std::size_t>(
      std::min_element(values.begin(), values.end()) - values.begin());
  result.x = simplex[best];
  result.value = values[best];
  return result;
}

double newton_root(const std::function<double(double)>& g, const std::function<double(double)>& dg,
                   double x0, double lo, double hi, double tolerance, int max_iterations) {
  if (!(lo < hi)) throw logic_error("newton_root requires lo < hi");
  double glo = g(lo);
  double ghi = g(hi);
  // Expand the bracket if needed (up to a point).
  for (int i = 0; i < 60 && glo * ghi > 0; ++i) {
    hi *= 2.0;
    ghi = g(hi);
  }
  if (glo * ghi > 0) throw numeric_error("newton_root could not bracket a root");

  double x = std::clamp(x0, lo, hi);
  for (int i = 0; i < max_iterations; ++i) {
    const double gx = g(x);
    if (std::fabs(gx) < tolerance) return x;
    // Maintain the bracket.
    if (glo * gx < 0) {
      hi = x;
    } else {
      lo = x;
      glo = gx;
    }
    const double d = dg(x);
    double next = (d != 0.0) ? x - gx / d : 0.5 * (lo + hi);
    if (!(next > lo) || !(next < hi)) next = 0.5 * (lo + hi);
    if (std::fabs(next - x) < tolerance * (std::fabs(x) + 1.0)) return next;
    x = next;
  }
  return x;
}

}  // namespace avtk::stats
