#include "stats/optimize.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/errors.h"

namespace avtk::stats {
namespace {

TEST(NelderMead, Quadratic2d) {
  const auto opt = nelder_mead_minimize(
      [](const std::vector<double>& v) {
        return (v[0] - 1.0) * (v[0] - 1.0) + (v[1] + 2.0) * (v[1] + 2.0);
      },
      {0.0, 0.0});
  EXPECT_NEAR(opt.x[0], 1.0, 1e-4);
  EXPECT_NEAR(opt.x[1], -2.0, 1e-4);
}

TEST(NelderMead, Rosenbrock) {
  const auto opt = nelder_mead_minimize(
      [](const std::vector<double>& v) {
        const double a = 1.0 - v[0];
        const double b = v[1] - v[0] * v[0];
        return a * a + 100.0 * b * b;
      },
      {-1.2, 1.0}, 0.25, 1e-14, 10000);
  EXPECT_NEAR(opt.x[0], 1.0, 1e-3);
  EXPECT_NEAR(opt.x[1], 1.0, 1e-3);
}

TEST(NelderMead, OneDimension) {
  const auto opt = nelder_mead_minimize(
      [](const std::vector<double>& v) { return std::cosh(v[0] - 0.5); }, {5.0});
  EXPECT_NEAR(opt.x[0], 0.5, 1e-4);
}

TEST(NelderMead, EmptyStartThrows) {
  EXPECT_THROW(nelder_mead_minimize([](const std::vector<double>&) { return 0.0; }, {}),
               logic_error);
}

TEST(NewtonRoot, FindsCubeRoot) {
  const auto g = [](double x) { return x * x * x - 27.0; };
  const auto dg = [](double x) { return 3.0 * x * x; };
  EXPECT_NEAR(newton_root(g, dg, 1.0, 0.1, 100.0), 3.0, 1e-9);
}

TEST(NewtonRoot, BisectionFallbackOnFlatDerivative) {
  // Derivative intentionally lies (returns 0): must still converge by
  // bisection.
  const auto g = [](double x) { return x - 2.0; };
  const auto dg = [](double) { return 0.0; };
  EXPECT_NEAR(newton_root(g, dg, 9.0, 0.0, 10.0), 2.0, 1e-8);
}

TEST(NewtonRoot, ExpandsBracket) {
  // Root at 100, initial bracket [0.1, 1] must auto-expand.
  const auto g = [](double x) { return x - 100.0; };
  const auto dg = [](double) { return 1.0; };
  EXPECT_NEAR(newton_root(g, dg, 0.5, 0.1, 1.0), 100.0, 1e-6);
}

TEST(NewtonRoot, UnbracketableThrows) {
  const auto g = [](double) { return 1.0; };  // never zero
  const auto dg = [](double) { return 0.0; };
  EXPECT_THROW(newton_root(g, dg, 1.0, 0.0, 2.0), numeric_error);
}

}  // namespace
}  // namespace avtk::stats
