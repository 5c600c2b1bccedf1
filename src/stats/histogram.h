// avtk/stats/histogram.h
//
// Fixed-width histograms, rendered as ASCII bars for the relative-speed
// distribution of Fig. 12.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace avtk::stats {

/// A fixed-width histogram over [lo, hi).
class histogram {
 public:
  /// Builds `bins` equal-width buckets over [lo, hi). Values outside the
  /// range are counted in the under/overflow totals but not binned.
  histogram(double lo, double hi, std::size_t bins);

  /// Convenience: range from the sample itself (max is nudged so the
  /// largest sample still falls into the last bucket).
  static histogram from_samples(std::span<const double> xs, std::size_t bins);

  void add(double x);
  void add_all(std::span<const double> xs);

  std::size_t bin_count() const { return counts_.size(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double bin_width() const { return width_; }
  std::size_t total() const { return total_; }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }

  /// Simple ASCII rendering (one row per bucket with a bar), used by the
  /// bench binaries to show distribution shapes in text output.
  std::string render_ascii(std::size_t max_bar_width = 50) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
};

}  // namespace avtk::stats
