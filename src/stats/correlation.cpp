#include "stats/correlation.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "stats/descriptive.h"
#include "stats/special.h"
#include "util/errors.h"

namespace avtk::stats {

double covariance(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size()) throw logic_error("covariance requires matched sizes");
  if (xs.size() < 2) throw logic_error("covariance requires n >= 2");
  const double mx = mean(xs);
  const double my = mean(ys);
  double acc = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) acc += (xs[i] - mx) * (ys[i] - my);
  return acc / static_cast<double>(xs.size() - 1);
}

correlation_result pearson(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size()) throw logic_error("pearson requires matched sizes");
  if (xs.size() < 3) throw logic_error("pearson requires n >= 3");
  const double sx = stddev(xs);
  const double sy = stddev(ys);
  if (sx == 0 || sy == 0) throw logic_error("pearson requires non-degenerate samples");

  correlation_result out;
  out.n = xs.size();
  out.r = covariance(xs, ys) / (sx * sy);
  // Clamp tiny numeric overshoot.
  out.r = std::clamp(out.r, -1.0, 1.0);

  const double dof = static_cast<double>(out.n - 2);
  const double denom = 1.0 - out.r * out.r;
  if (denom <= 0) {
    out.t_stat = std::numeric_limits<double>::infinity();
    out.p_value = 0.0;
  } else {
    out.t_stat = out.r * std::sqrt(dof / denom);
    out.p_value = student_t_two_sided_p(out.t_stat, dof);
  }
  return out;
}

std::vector<double> ranks(std::span<const double> xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });

  std::vector<double> rank(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    // Average rank over the tie run [i, j], 1-based.
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) rank[order[k]] = avg;
    i = j + 1;
  }
  return rank;
}

}  // namespace avtk::stats
