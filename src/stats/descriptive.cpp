#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "util/errors.h"

namespace avtk::stats {

namespace {

void require_nonempty(std::span<const double> xs, const char* fn) {
  if (xs.empty()) throw logic_error(std::string(fn) + " on empty sample");
}

}  // namespace

double mean(std::span<const double> xs) {
  require_nonempty(xs, "mean");
  double sum = 0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) throw logic_error("variance requires n >= 2");
  const double m = mean(xs);
  double ss = 0;
  for (double x : xs) ss += (x - m) * (x - m);
  return ss / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min(std::span<const double> xs) {
  require_nonempty(xs, "min");
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  require_nonempty(xs, "max");
  return *std::max_element(xs.begin(), xs.end());
}

std::vector<double> sorted(std::span<const double> xs) {
  std::vector<double> out(xs.begin(), xs.end());
  std::sort(out.begin(), out.end());
  return out;
}

double quantile(std::span<const double> xs, double q) {
  require_nonempty(xs, "quantile");
  if (q < 0.0 || q > 1.0) throw logic_error("quantile requires q in [0,1]");
  const auto s = sorted(xs);
  if (s.size() == 1) return s[0];
  const double h = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = static_cast<std::size_t>(std::ceil(h));
  const double frac = h - std::floor(h);
  return s[lo] + frac * (s[hi] - s[lo]);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

box_summary summarize_box(std::span<const double> xs) {
  require_nonempty(xs, "summarize_box");
  box_summary b;
  b.n = xs.size();
  b.whisker_low = min(xs);
  b.whisker_high = max(xs);
  b.q1 = quantile(xs, 0.25);
  b.median = quantile(xs, 0.5);
  b.q3 = quantile(xs, 0.75);
  b.notch = 1.57 * (b.q3 - b.q1) / std::sqrt(static_cast<double>(b.n));
  return b;
}

}  // namespace avtk::stats
