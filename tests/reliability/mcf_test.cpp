// reliability/mcf.h unit tests: the Nelson MCF against hand-computed
// values, monotonicity, tie grouping, thinning, deterministic seeded
// bootstrap bands, and the degenerate inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "reliability/mcf.h"
#include "util/errors.h"

namespace avtk::reliability {
namespace {

// The estimated curve as a step function: 0 before the first point, flat
// after the last.
double mcf_at(const mcf_estimate& estimate, double miles) {
  const auto& points = estimate.points;
  auto it = std::upper_bound(points.begin(), points.end(), miles,
                             [](double t, const mcf_point& p) { return t < p.miles; });
  if (it == points.begin()) return 0.0;
  return std::prev(it)->mcf;
}

event_process unit(std::string id, double exposure, std::vector<double> events) {
  event_process p;
  p.unit_id = std::move(id);
  p.exposure = exposure;
  p.events = std::move(events);
  return p;
}

TEST(EstimateMcf, MatchesHandComputedCurve) {
  // Three units censored at 100 / 60 / 40 miles. At-risk counts:
  //   t=10: all three observing -> d/n = 1/3
  //   t=30: all three           -> 1/3
  //   t=50: only A and B        -> 1/2
  const std::vector<event_process> units = {
      unit("a", 100.0, {10.0, 50.0}),
      unit("b", 60.0, {30.0}),
      unit("c", 40.0, {}),
  };
  const auto est = estimate_mcf(units);
  EXPECT_EQ(est.units, 3u);
  EXPECT_EQ(est.total_events, 3u);
  ASSERT_EQ(est.points.size(), 3u);

  EXPECT_DOUBLE_EQ(est.points[0].miles, 10.0);
  EXPECT_EQ(est.points[0].at_risk, 3u);
  EXPECT_DOUBLE_EQ(est.points[0].mcf, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(est.points[0].variance, 1.0 / 9.0);

  EXPECT_DOUBLE_EQ(est.points[1].mcf, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(est.points[1].variance, 2.0 / 9.0);

  EXPECT_EQ(est.points[2].at_risk, 2u);
  EXPECT_DOUBLE_EQ(est.points[2].mcf, 2.0 / 3.0 + 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(est.points[2].variance, 2.0 / 9.0 + 1.0 / 4.0);
}

TEST(EstimateMcf, TiedEventsGroupIntoOnePoint) {
  const std::vector<event_process> units = {
      unit("a", 100.0, {25.0, 25.0}),
      unit("b", 100.0, {25.0}),
  };
  const auto est = estimate_mcf(units);
  ASSERT_EQ(est.points.size(), 1u);
  EXPECT_EQ(est.points[0].events, 3u);
  EXPECT_DOUBLE_EQ(est.points[0].mcf, 3.0 / 2.0);
}

TEST(EstimateMcf, CurveIsMonotoneWithOrderedBands) {
  std::vector<event_process> units;
  for (int i = 0; i < 8; ++i) {
    const double exposure = 100.0 + 25.0 * i;
    std::vector<double> events;
    for (double t = 10.0 + i; t < exposure; t += 37.0) events.push_back(t);
    units.push_back(unit("u" + std::to_string(i), exposure, std::move(events)));
  }
  const auto est = estimate_mcf(units);
  ASSERT_FALSE(est.points.empty());
  double prev = 0.0;
  for (const auto& p : est.points) {
    EXPECT_GE(p.mcf, prev);
    EXPECT_LE(p.lower, p.upper);
    EXPECT_GE(p.lower, 0.0);
    EXPECT_GE(p.at_risk, 1u);
    prev = p.mcf;
  }
}

TEST(EstimateMcf, BandsAreDeterministicPerSeed) {
  std::vector<event_process> units;
  for (int i = 0; i < 6; ++i) {
    units.push_back(unit("u" + std::to_string(i), 200.0 + 10.0 * i,
                         {20.0 + i, 80.0 + 2.0 * i, 150.0}));
  }
  mcf_options options;
  options.seed = 7;
  const auto a = estimate_mcf(units, options);
  const auto b = estimate_mcf(units, options);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points[i].lower, b.points[i].lower);
    EXPECT_DOUBLE_EQ(a.points[i].upper, b.points[i].upper);
  }
}

TEST(EstimateMcf, ThinningKeepsExactEstimatesAndTheLastPoint) {
  std::vector<event_process> units;
  std::vector<double> events;
  for (int i = 1; i <= 40; ++i) events.push_back(5.0 * i);
  units.push_back(unit("a", 250.0, std::move(events)));

  const auto full = estimate_mcf(units);
  mcf_options options;
  options.max_points = 7;
  const auto thin = estimate_mcf(units, options);
  ASSERT_EQ(thin.points.size(), 7u);
  EXPECT_EQ(thin.total_events, full.total_events);
  EXPECT_DOUBLE_EQ(thin.points.back().miles, full.points.back().miles);
  EXPECT_DOUBLE_EQ(thin.points.back().mcf, full.points.back().mcf);
  for (const auto& p : thin.points) {
    // Every kept point carries the exact full-curve estimate there.
    EXPECT_DOUBLE_EQ(p.mcf, mcf_at(full, p.miles));
  }
}

TEST(EstimateMcf, SingleUnitStillGetsBands) {
  const std::vector<event_process> units = {unit("a", 100.0, {10.0, 40.0, 90.0})};
  const auto est = estimate_mcf(units);
  ASSERT_EQ(est.points.size(), 3u);
  for (const auto& p : est.points) {
    // Resampling one unit always reproduces it: the bands collapse.
    EXPECT_DOUBLE_EQ(p.lower, p.mcf);
    EXPECT_DOUBLE_EQ(p.upper, p.mcf);
  }
}

TEST(EstimateMcf, RejectsDegenerateInputs) {
  EXPECT_THROW(estimate_mcf(std::vector<event_process>{}), logic_error);
  const std::vector<event_process> zero = {unit("a", 0.0, {})};
  EXPECT_THROW(estimate_mcf(zero), logic_error);
  mcf_options bad;
  bad.replicates = 10;
  const std::vector<event_process> ok = {unit("a", 10.0, {5.0})};
  EXPECT_THROW(estimate_mcf(ok, bad), logic_error);
}

TEST(McfAt, StepEvaluation) {
  const std::vector<event_process> units = {unit("a", 100.0, {10.0, 50.0}),
                                            unit("b", 100.0, {})};
  const auto est = estimate_mcf(units);
  EXPECT_DOUBLE_EQ(mcf_at(est, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(mcf_at(est, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(mcf_at(est, 49.9), 0.5);
  EXPECT_DOUBLE_EQ(mcf_at(est, 1000.0), 1.0);
}

}  // namespace
}  // namespace avtk::reliability
