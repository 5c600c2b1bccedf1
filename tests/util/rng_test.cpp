#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace avtk {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  rng a(7);
  rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiverge) {
  rng a(1);
  rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 20; ++i) {
    if (a.uniform() != b.uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInRange) {
  rng g(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = g.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
  EXPECT_THROW(g.uniform(5.0, 2.0), logic_error);
}

TEST(Rng, UniformIntBoundsInclusive) {
  rng g(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = g.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    if (v == 1) saw_lo = true;
    if (v == 6) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW(g.uniform_int(3, 2), logic_error);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  rng g(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += g.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
  EXPECT_THROW(g.exponential(0.0), logic_error);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  rng g(6);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = g.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ExponentiatedWeibullReducesToWeibullAtPowerOne) {
  // With power == 1 the exponentiated Weibull is a plain Weibull; compare
  // sample means against the analytic Weibull mean.
  rng g(8);
  double sum = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) sum += g.exponentiated_weibull(1.5, 0.8, 1.0);
  const double analytic = 0.8 * std::tgamma(1.0 + 1.0 / 1.5);
  EXPECT_NEAR(sum / n, analytic, 0.02);
}

TEST(Rng, ExponentiatedWeibullPowerShiftsMass) {
  // Larger power pushes the distribution right (maximum of `power` iid
  // Weibulls in distribution).
  rng g(9);
  double low = 0;
  double high = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    low += g.exponentiated_weibull(1.5, 0.8, 1.0);
    high += g.exponentiated_weibull(1.5, 0.8, 3.0);
  }
  EXPECT_GT(high / n, low / n);
}

TEST(Rng, PoissonMean) {
  rng g(10);
  long long total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += g.poisson(3.0);
  EXPECT_NEAR(static_cast<double>(total) / n, 3.0, 0.1);
  EXPECT_EQ(g.poisson(0.0), 0);
  EXPECT_THROW(g.poisson(-1.0), logic_error);
}

TEST(Rng, BernoulliFrequency) {
  rng g(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += g.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
  EXPECT_THROW(g.bernoulli(1.5), logic_error);
}

TEST(Rng, CategoricalRespectsWeights) {
  rng g(12);
  const std::vector<double> w = {1.0, 3.0, 0.0};
  std::vector<int> counts(3, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[g.categorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.75, 0.02);
  const std::vector<double> zero = {0.0, 0.0};
  EXPECT_THROW(g.categorical(zero), logic_error);
  const std::vector<double> negative = {1.0, -0.5};
  EXPECT_THROW(g.categorical(negative), logic_error);
}

TEST(Rng, PickAndShuffle) {
  rng g(13);
  const std::vector<int> items = {1, 2, 3};
  for (int i = 0; i < 50; ++i) {
    const int v = g.pick(items);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3);
  }
  std::vector<int> deck(52);
  for (int i = 0; i < 52; ++i) deck[static_cast<std::size_t>(i)] = i;
  auto shuffled = deck;
  g.shuffle(shuffled);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, deck);  // same multiset
  EXPECT_NE(shuffled, deck);  // overwhelmingly likely

  const std::vector<int> empty;
  EXPECT_THROW(g.pick(empty), logic_error);
}

TEST(Rng, ForkProducesIndependentStream) {
  rng parent(14);
  rng child = parent.fork();
  // The child stream should not replay the parent's next values.
  bool differs = false;
  for (int i = 0; i < 10; ++i) {
    if (parent.uniform() != child.uniform()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, ForkIsDeterministic) {
  rng a(15);
  rng b(15);
  rng ca = a.fork();
  rng cb = b.fork();
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(ca.uniform(), cb.uniform());
}

}  // namespace
}  // namespace avtk
