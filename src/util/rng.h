// avtk/util/rng.h
//
// Deterministic random-number generation for the synthetic-corpus generator
// and the fleet simulator. All stochastic components in avtk draw from an
// explicitly seeded `rng` so that every experiment is reproducible bit-for-
// bit (Core Guidelines P.6: make reproducibility checkable).
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "util/errors.h"

namespace avtk {

/// A seeded PRNG wrapper exposing the handful of draw shapes avtk needs.
/// Copyable; copies continue the sequence independently.
class rng {
 public:
  explicit rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform on [0, 1).
  double uniform();

  /// Uniform on [lo, hi). Requires lo < hi.
  double uniform(double lo, double hi);

  /// Uniform integer on [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential with the given mean (not rate). Requires mean > 0.
  double exponential(double mean);

  /// Exponentiated Weibull: CDF F(x) = [1 - exp(-(x/scale)^shape)]^power.
  /// Sampled by inversion. Requires shape, scale, power > 0.
  double exponentiated_weibull(double shape, double scale, double power);

  /// Log-normal with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma);

  /// Poisson with the given mean >= 0.
  std::int64_t poisson(double mean);

  /// Bernoulli with probability p in [0, 1].
  bool bernoulli(double p);

  /// Draws an index in [0, weights.size()) with probability proportional to
  /// weights[i]. Requires at least one strictly positive weight.
  std::size_t categorical(std::span<const double> weights);

  /// Uniformly selects one element of a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    if (items.empty()) throw logic_error("rng::pick on empty vector");
    return items[static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(items.size()) - 1))];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Derives an independent child generator; used to give each vehicle /
  /// month / module its own stream so that adding draws in one place does
  /// not perturb another.
  rng fork();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace avtk
