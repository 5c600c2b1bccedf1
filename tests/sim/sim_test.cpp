#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "nlp/classifier.h"
#include "sim/control_loop.h"
#include "sim/driver.h"
#include "sim/environment.h"
#include "sim/faults.h"
#include "sim/fleet.h"
#include "sim/scenario.h"
#include "sim/vehicle.h"
#include "util/errors.h"

namespace avtk::sim {
namespace {

// ------------------------------------------------------------------ faults

TEST(Faults, EveryKindHasNameComponentAndTag) {
  for (const auto k : all_fault_kinds()) {
    EXPECT_FALSE(fault_kind_name(k).empty());
    EXPECT_NO_THROW(component_of(k));
    EXPECT_NO_THROW(tag_of(k));
  }
  EXPECT_EQ(all_fault_kinds().size(), k_fault_kind_count);
}

TEST(Faults, TagMappingMatchesStpaIntuition) {
  EXPECT_EQ(tag_of(fault_kind::watchdog_timeout), nlp::fault_tag::hang_crash);
  EXPECT_EQ(tag_of(fault_kind::missed_detection), nlp::fault_tag::recognition_system);
  EXPECT_EQ(tag_of(fault_kind::reckless_road_user), nlp::fault_tag::environment);
  EXPECT_EQ(tag_of(fault_kind::wrong_prediction),
            nlp::fault_tag::incorrect_behavior_prediction);
  EXPECT_EQ(component_of(fault_kind::gps_loss), nlp::stpa_component::sensors);
  EXPECT_EQ(component_of(fault_kind::actuation_timeout),
            nlp::stpa_component::follower_actuators);
}

TEST(Faults, DescriptionsClassifiableByPipeline) {
  // Every simulator fault description must map back to the fault's tag via
  // the NLP classifier — this is what lets the simulated fleet flow through
  // the same Stage III as the DMV corpus.
  rng g(111);
  const nlp::keyword_voting_classifier cls(nlp::failure_dictionary::builtin());
  for (const auto k : all_fault_kinds()) {
    for (int i = 0; i < 10; ++i) {
      const auto text = describe_fault(k, g);
      EXPECT_EQ(cls.classify(text).tag, tag_of(k))
          << fault_kind_name(k) << ": " << text;
    }
  }
}

TEST(Faults, InjectorRatesDecayWithMiles) {
  fault_injector::config cfg;
  cfg.maturity_floor = 0.001;  // keep the floor out of the way
  fault_injector inj(cfg, 1);
  EXPECT_GT(inj.rate_per_mile(0), inj.rate_per_mile(10000));
  EXPECT_GT(inj.rate_per_mile(10000), inj.rate_per_mile(1000000));
}

TEST(Faults, InjectorRateFloorHolds) {
  fault_injector::config cfg;
  cfg.maturity_floor = 0.10;
  fault_injector inj(cfg, 1);
  EXPECT_GE(inj.rate_per_mile(1e12), cfg.base_rate_per_mile * 0.10 * 0.999);
}

TEST(Faults, InjectorDrawCountsScaleWithMiles) {
  fault_injector inj({}, 2);
  std::size_t short_total = 0;
  std::size_t long_total = 0;
  for (int i = 0; i < 200; ++i) {
    short_total += inj.draw_faults(10, 0).size();
    long_total += inj.draw_faults(1000, 0).size();
  }
  EXPECT_GT(long_total, short_total * 10);
  EXPECT_TRUE(inj.draw_faults(0, 0).empty());
}

TEST(Faults, InvalidConfigThrows) {
  fault_injector::config cfg;
  cfg.maturity_floor = 0.0;
  EXPECT_THROW(fault_injector(cfg, 1), logic_error);
  cfg = {};
  cfg.environment_share = 1.5;
  EXPECT_THROW(fault_injector(cfg, 1), logic_error);
}

// ------------------------------------------------------------------ driver

TEST(Driver, ReactionTimesPositiveAndPlausible) {
  safety_driver d({}, 7);
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const double t = d.sample_reaction_time(0);
    EXPECT_GT(t, 0);
    sum += t;
  }
  EXPECT_NEAR(sum / n, 0.6, 0.3);  // ballpark of the paper's 0.85 s
}

TEST(Driver, ComplacencyStretchesWithMiles) {
  safety_driver d({}, 8);
  EXPECT_DOUBLE_EQ(d.reaction_stretch(0), 1.0);
  EXPECT_GT(d.reaction_stretch(1e6), d.reaction_stretch(1e3));
}

TEST(Driver, ProactiveShareRoughlyRespected) {
  safety_driver::config cfg;
  cfg.proactive_share = 0.3;
  safety_driver d(cfg, 9);
  int yes = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) yes += d.takes_over_proactively() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(yes) / n, 0.3, 0.05);
}

// ------------------------------------------------------------- environment

TEST(Environment, RoadMixMatchesCorpus) {
  environment_model env(10);
  std::map<dataset::road_type, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[env.sample_context().road];
  EXPECT_NEAR(counts[dataset::road_type::city_street] / static_cast<double>(n), 0.317, 0.03);
  EXPECT_NEAR(counts[dataset::road_type::highway] / static_cast<double>(n), 0.2926, 0.03);
}

TEST(Environment, ComplexityBounds) {
  environment_model env(11);
  for (int i = 0; i < 2000; ++i) {
    const auto ctx = env.sample_context();
    EXPECT_GE(ctx.complexity(), 0.0);
    EXPECT_LE(ctx.complexity(), 1.0);
    EXPECT_GT(ctx.speed_mph, 0.0);
  }
}

TEST(Environment, IntersectionsRaiseComplexity) {
  driving_context a;
  a.road = dataset::road_type::city_street;
  a.near_intersection = false;
  a.traffic_density = 0.5;
  driving_context b = a;
  b.near_intersection = true;
  EXPECT_GT(b.complexity(), a.complexity());
}

TEST(Environment, CityTighterThanInterstate) {
  driving_context city;
  city.road = dataset::road_type::city_street;
  driving_context interstate = city;
  interstate.road = dataset::road_type::interstate;
  EXPECT_GT(city.complexity(), interstate.complexity());
}

// ------------------------------------------------------------ control loop

TEST(ControlLoop, FourStagesInOrder) {
  control_loop loop({}, 12);
  const auto r = loop.process_hazard(fault_kind::missed_detection, 0.5);
  ASSERT_EQ(r.stages.size(), 4u);
  EXPECT_EQ(r.stages[0].component, nlp::stpa_component::sensors);
  EXPECT_EQ(r.stages[3].component, nlp::stpa_component::follower_actuators);
}

TEST(ControlLoop, FaultOriginStageFails) {
  control_loop loop({}, 13);
  const auto r = loop.process_hazard(fault_kind::infeasible_plan, 0.5);
  EXPECT_FALSE(r.stages[2].handled);  // planner stage
  EXPECT_TRUE(r.failing_fault.has_value());
}

TEST(ControlLoop, WatchdogFaultsAlmostAlwaysSelfDetected) {
  control_loop loop({}, 14);
  int detected = 0;
  for (int i = 0; i < 1000; ++i) {
    if (loop.process_hazard(fault_kind::watchdog_timeout, 0.5).ads_detected) ++detected;
  }
  EXPECT_GT(detected, 900);
}

TEST(ControlLoop, SilentMlFaultsDetectedLessOften) {
  control_loop loop({}, 15);
  int watchdog = 0;
  int missed = 0;
  for (int i = 0; i < 2000; ++i) {
    if (loop.process_hazard(fault_kind::watchdog_timeout, 0.5).ads_detected) ++watchdog;
    if (loop.process_hazard(fault_kind::missed_detection, 0.5).ads_detected) ++missed;
  }
  EXPECT_GT(watchdog, missed);
}

TEST(ControlLoop, CrashesNeverRecoverAutonomously) {
  control_loop loop({}, 16);
  for (int i = 0; i < 500; ++i) {
    EXPECT_FALSE(loop.process_hazard(fault_kind::software_crash, 0.2).ads_handled);
  }
}

TEST(ControlLoop, OverloadInflatesLatency) {
  control_loop loop({}, 17);
  double normal = 0;
  double overloaded = 0;
  for (int i = 0; i < 500; ++i) {
    normal += loop.process_hazard(fault_kind::missed_detection, 0.3).stages[1].latency_s;
    overloaded += loop.process_hazard(fault_kind::compute_overload, 0.3).stages[1].latency_s;
  }
  EXPECT_GT(overloaded, normal * 2);
}

// ----------------------------------------------------------------- vehicle

TEST(Vehicle, DriveProducesResolvedHazards) {
  av_vehicle v("T-1", {}, 18);
  fault_injector inj({}, 19);
  const auto events = v.drive(5000, 0, inj);
  EXPECT_GT(events.size(), 10u);
  for (const auto& ev : events) {
    EXPECT_FALSE(ev.description.empty());
    EXPECT_NO_THROW(hazard_outcome_name(ev.outcome));
  }
  EXPECT_DOUBLE_EQ(v.odometer_miles(), 5000);
}

TEST(Vehicle, OutcomeMixIsSane) {
  av_vehicle v("T-2", {}, 20);
  fault_injector inj({}, 21);
  std::map<hazard_outcome, int> counts;
  for (int i = 0; i < 40; ++i) {
    for (const auto& ev : v.drive(1000, 0, inj)) ++counts[ev.outcome];
  }
  const int disengagements = counts[hazard_outcome::automatic_disengagement] +
                             counts[hazard_outcome::manual_disengagement];
  EXPECT_GT(disengagements, 0);
  EXPECT_GT(counts[hazard_outcome::absorbed], 0);
  // Accidents must be far rarer than disengagements (paper: 1 per ~127).
  EXPECT_LT(counts[hazard_outcome::accident] * 20, disengagements);
}

TEST(Vehicle, NoMilesNoHazards) {
  av_vehicle v("T-3", {}, 22);
  fault_injector inj({}, 23);
  EXPECT_TRUE(v.drive(0, 0, inj).empty());
}

// ------------------------------------------------------------------- fleet

TEST(Fleet, RunProducesConsistentAggregates) {
  fleet_config cfg;
  cfg.vehicles = 5;
  cfg.months = 6;
  cfg.seed = 24;
  const auto result = run_fleet(cfg);
  EXPECT_GT(result.total_miles, 0);
  EXPECT_EQ(result.disengagements,
            static_cast<long long>(result.database.disengagements().size()));
  EXPECT_EQ(result.accidents, static_cast<long long>(result.database.accidents().size()));
  EXPECT_GT(result.dpm(), 0.0);
  EXPECT_LT(result.apm(), result.dpm());
}

TEST(Fleet, BurnInLowersDpmOverTime) {
  fleet_config cfg;
  cfg.vehicles = 8;
  cfg.months = 24;
  cfg.miles_per_vehicle_month = 2000;
  cfg.seed = 25;
  const auto result = run_fleet(cfg);
  // Split the trace at the halfway cumulative-mileage point.
  double early_events = 0;
  double late_events = 0;
  for (const auto& ev : result.events) {
    if (ev.outcome == hazard_outcome::absorbed) continue;
    if (ev.fleet_miles_at_event < result.total_miles / 2) {
      ++early_events;
    } else {
      ++late_events;
    }
  }
  EXPECT_GT(early_events, late_events);  // the paper's Fig. 9 trend
}

TEST(Fleet, DatabaseFeedsAnalysisPipelineTypes) {
  fleet_config cfg;
  cfg.vehicles = 3;
  cfg.months = 4;
  cfg.seed = 26;
  const auto result = run_fleet(cfg);
  for (const auto& d : result.database.disengagements()) {
    EXPECT_EQ(d.maker, cfg.maker);
    EXPECT_TRUE(d.event_date.has_value());
    EXPECT_NE(d.tag, nlp::fault_tag::unknown);
  }
}

TEST(Fleet, DeterministicForSeed) {
  fleet_config cfg;
  cfg.vehicles = 3;
  cfg.months = 3;
  cfg.seed = 27;
  const auto a = run_fleet(cfg);
  const auto b = run_fleet(cfg);
  EXPECT_EQ(a.disengagements, b.disengagements);
  EXPECT_EQ(a.accidents, b.accidents);
  EXPECT_DOUBLE_EQ(a.total_miles, b.total_miles);
}

TEST(Fleet, InvalidConfigThrows) {
  fleet_config cfg;
  cfg.vehicles = 0;
  EXPECT_THROW(run_fleet(cfg), logic_error);
}

// --------------------------------------------------------------- scenarios

TEST(Scenarios, CaseStudiesEndInAccidents) {
  const auto cs1 = run_case_study_1();
  const auto cs2 = run_case_study_2();
  EXPECT_EQ(cs1.outcome, hazard_outcome::accident);
  EXPECT_EQ(cs2.outcome, hazard_outcome::accident);
  // The defining property of both case studies: the needed response time
  // exceeded the available window.
  EXPECT_GT(cs1.response_time_s, cs1.action_window_s);
  EXPECT_GT(cs2.response_time_s, cs2.action_window_s);
}

TEST(Scenarios, TracesRenderNonEmpty) {
  const auto text = run_case_study_1().render();
  EXPECT_NE(text.find("pedestrian"), std::string::npos);
  EXPECT_NE(text.find("outcome: accident"), std::string::npos);
  EXPECT_GE(run_case_study_2().steps.size(), 5u);
}

}  // namespace
}  // namespace avtk::sim
