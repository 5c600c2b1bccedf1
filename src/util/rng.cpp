#include "util/rng.h"

#include <cmath>

namespace avtk {

double rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double rng::uniform(double lo, double hi) {
  if (!(lo < hi)) throw logic_error("rng::uniform requires lo < hi");
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw logic_error("rng::uniform_int requires lo <= hi");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double rng::normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double rng::exponential(double mean) {
  if (!(mean > 0)) throw logic_error("rng::exponential requires mean > 0");
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

double rng::exponentiated_weibull(double shape, double scale, double power) {
  if (!(shape > 0 && scale > 0 && power > 0)) {
    throw logic_error("rng::exponentiated_weibull requires positive parameters");
  }
  // Inversion: F(x) = [1 - exp(-(x/scale)^shape)]^power
  //   => x = scale * (-log(1 - u^(1/power)))^(1/shape)
  double u = uniform();
  if (u <= 0.0) u = 1e-300;
  const double inner = 1.0 - std::pow(u, 1.0 / power);
  const double clipped = inner <= 0.0 ? 1e-300 : inner;
  return scale * std::pow(-std::log(clipped), 1.0 / shape);
}

double rng::lognormal(double mu, double sigma) {
  return std::lognormal_distribution<double>(mu, sigma)(engine_);
}

std::int64_t rng::poisson(double mean) {
  if (mean < 0) throw logic_error("rng::poisson requires mean >= 0");
  if (mean == 0) return 0;
  return std::poisson_distribution<std::int64_t>(mean)(engine_);
}

bool rng::bernoulli(double p) {
  if (p < 0.0 || p > 1.0) throw logic_error("rng::bernoulli requires p in [0,1]");
  return std::bernoulli_distribution(p)(engine_);
}

std::size_t rng::categorical(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0) throw logic_error("rng::categorical requires non-negative weights");
    total += w;
  }
  if (!(total > 0)) throw logic_error("rng::categorical requires a positive weight");
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0) return i;
  }
  return weights.size() - 1;  // numerical edge: land on the last bucket
}

rng rng::fork() {
  // Use two draws to decorrelate the child stream from the parent's state.
  const std::uint64_t a = engine_();
  const std::uint64_t b = engine_();
  return rng(a ^ (b * 0x9E3779B97F4A7C15ULL));
}

}  // namespace avtk
