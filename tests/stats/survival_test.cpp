#include "stats/survival.h"

#include <gtest/gtest.h>

#include "util/errors.h"
#include "util/rng.h"

namespace avtk::stats {
namespace {

// S(t) read off the fitted curve: 1 before the first event time, else the
// survival just after the last event time <= t.
double survival_at(const kaplan_meier& km, double time) {
  double s = 1.0;
  for (const auto& p : km.curve()) {
    if (p.time > time) break;
    s = p.survival;
  }
  return s;
}

TEST(KaplanMeier, NoCensoringMatchesEmpiricalSurvival) {
  // Events at 1,2,3,4: S steps 0.75, 0.5, 0.25, 0.
  const kaplan_meier km({{1, true}, {2, true}, {3, true}, {4, true}});
  EXPECT_DOUBLE_EQ(survival_at(km, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(survival_at(km, 1.0), 0.75);
  EXPECT_DOUBLE_EQ(survival_at(km, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(survival_at(km, 100), 0.0);
  EXPECT_EQ(km.observed_events(), 4u);
}

TEST(KaplanMeier, TextbookCensoredExample) {
  // Classic worked example: events at 6 (3x), 10; censored at 6, 9, 11.
  const kaplan_meier km({{6, true},
                         {6, true},
                         {6, true},
                         {6, false},
                         {9, false},
                         {10, true},
                         {11, false}});
  // At t=6: 7 at risk, 3 events -> S = 4/7.
  EXPECT_NEAR(survival_at(km, 6), 4.0 / 7.0, 1e-12);
  // At t=10: 2 at risk (censored at 6 and 9 removed), 1 event -> S = 4/7 * 1/2.
  EXPECT_NEAR(survival_at(km, 10), 4.0 / 7.0 * 0.5, 1e-12);
}

TEST(KaplanMeier, CensoringKeepsSurvivalHigher) {
  const kaplan_meier all_events({{1, true}, {2, true}, {3, true}, {4, true}});
  const kaplan_meier censored({{1, true}, {2, true}, {3, false}, {4, false}});
  EXPECT_GT(survival_at(censored, 10), survival_at(all_events, 10));
}

TEST(KaplanMeier, MedianSurvival) {
  const kaplan_meier km({{1, true}, {2, true}, {3, true}, {4, true}});
  EXPECT_DOUBLE_EQ(km.median_survival().value(), 2.0);
  // Heavy censoring: curve never reaches 0.5.
  const kaplan_meier censored({{1, true}, {2, false}, {3, false}, {4, false}});
  EXPECT_FALSE(censored.median_survival().has_value());
}

TEST(KaplanMeier, RestrictedMeanOfExponentialSample) {
  rng g(131);
  std::vector<survival_observation> obs;
  for (int i = 0; i < 5000; ++i) obs.push_back({g.exponential(10.0), true});
  const kaplan_meier km(obs);
  // E[min(X, 30)] for exp(10) = 10 * (1 - e^-3) ~ 9.502.
  EXPECT_NEAR(km.restricted_mean(30.0), 10.0 * (1.0 - std::exp(-3.0)), 0.4);
}

TEST(KaplanMeier, InvalidInputsThrow) {
  EXPECT_THROW(kaplan_meier({}), logic_error);
  EXPECT_THROW(kaplan_meier({{0.0, true}}), logic_error);
  EXPECT_THROW(kaplan_meier({{-1.0, true}}), logic_error);
  const kaplan_meier km({{1, true}});
  EXPECT_THROW(km.restricted_mean(0.0), logic_error);
}

TEST(CensoredMtbf, ExposureOverEvents) {
  const std::vector<survival_observation> obs = {
      {100, true}, {50, false}, {150, true}, {200, false}};
  EXPECT_DOUBLE_EQ(censored_exponential_mtbf(obs).value(), 500.0 / 2.0);
}

TEST(CensoredMtbf, NoEventsGivesNullopt) {
  const std::vector<survival_observation> obs = {{100, false}, {50, false}};
  EXPECT_FALSE(censored_exponential_mtbf(obs).has_value());
}

TEST(CensoredMtbf, RecoversExponentialMeanUnderCensoring) {
  rng g(132);
  std::vector<survival_observation> obs;
  for (int i = 0; i < 20000; ++i) {
    const double x = g.exponential(40.0);
    const double censor = g.exponential(60.0);
    if (x <= censor) {
      obs.push_back({x, true});
    } else {
      obs.push_back({censor, false});
    }
  }
  EXPECT_NEAR(censored_exponential_mtbf(obs).value(), 40.0, 1.5);
}

}  // namespace
}  // namespace avtk::stats
