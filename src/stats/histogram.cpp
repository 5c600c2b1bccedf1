#include "stats/histogram.h"

#include <algorithm>
#include <cstdio>

#include "util/errors.h"

namespace avtk::stats {

histogram::histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  if (!(lo < hi)) throw logic_error("histogram requires lo < hi");
  if (bins == 0) throw logic_error("histogram requires at least one bin");
  width_ = (hi - lo) / static_cast<double>(bins);
  counts_.assign(bins, 0);
}

histogram histogram::from_samples(std::span<const double> xs, std::size_t bins) {
  if (xs.empty()) throw logic_error("histogram::from_samples on empty sample");
  double lo = *std::min_element(xs.begin(), xs.end());
  double hi = *std::max_element(xs.begin(), xs.end());
  if (lo == hi) hi = lo + 1.0;
  // Nudge hi so the max sample lands in the final bucket.
  hi += (hi - lo) * 1e-9;
  histogram h(lo, hi, bins);
  h.add_all(xs);
  return h;
}

void histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto bin = static_cast<std::size_t>((x - lo_) / width_);
  if (bin >= counts_.size()) bin = counts_.size() - 1;  // float edge
  ++counts_[bin];
}

void histogram::add_all(std::span<const double> xs) {
  for (double x : xs) add(x);
}

std::string histogram::render_ascii(std::size_t max_bar_width) const {
  const std::size_t peak = counts_.empty()
                               ? 0
                               : *std::max_element(counts_.begin(), counts_.end());
  std::string out;
  char buf[96];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double left = lo_ + static_cast<double>(i) * width_;
    const double right = left + width_;
    std::snprintf(buf, sizeof(buf), "[%8.3f, %8.3f) %6zu |", left, right, counts_[i]);
    out += buf;
    const std::size_t bar =
        peak == 0 ? 0 : counts_[i] * max_bar_width / peak;
    out.append(bar, '#');
    out += '\n';
  }
  return out;
}

}  // namespace avtk::stats
