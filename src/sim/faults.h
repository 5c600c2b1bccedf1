// avtk/sim/faults.h
//
// Fault model for the STPA control structure of Fig. 3. Each fault kind
// localizes to one component of the Autonomous Driving System and maps to
// the fault tag the NLP pipeline would assign to its log line, closing the
// loop between the generative simulator and the analysis pipeline.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "nlp/ontology.h"
#include "util/rng.h"

namespace avtk::sim {

/// Faults injectable into the simulated ADS, per STPA component.
enum class fault_kind {
  // Sensors (CL-2 feedback path).
  sensor_dropout,        ///< LIDAR/RADAR/camera frame loss
  sensor_miscalibration, ///< drifting extrinsics
  gps_loss,              ///< localization outage
  // Recognition.
  missed_detection,      ///< object present, not reported
  false_detection,       ///< phantom object reported
  late_detection,        ///< object reported after deadline
  // Planner & controller.
  infeasible_plan,       ///< trajectory violates dynamics
  wrong_prediction,      ///< mispredicted other agent behavior
  bad_decision,          ///< feasible but unsafe action chosen
  // Follower / actuation.
  actuation_timeout,     ///< command not executed in time
  // Platform.
  software_crash,
  watchdog_timeout,
  compute_overload,
  network_overload,
  // Environment (external, not a component defect).
  reckless_road_user,
  construction_zone,
  weather_degradation,
};

inline constexpr std::size_t k_fault_kind_count = 17;

/// All fault kinds in declaration order.
std::vector<fault_kind> all_fault_kinds();

/// Human-readable name ("missed_detection").
std::string_view fault_kind_name(fault_kind k);

/// The STPA component the fault localizes to.
nlp::stpa_component component_of(fault_kind k);

/// The fault tag the analysis pipeline should assign to this fault's log
/// description.
nlp::fault_tag tag_of(fault_kind k);

/// A log line describing the fault the way a manufacturer's report would.
std::string describe_fault(fault_kind k, rng& gen);

/// Per-mile base hazard rates for each fault kind, scaled by a maturity
/// factor (rates fall as the fleet accumulates miles: the "burn-in" the
/// paper observes). Invariant: rates >= 0, 0 < maturity_floor <= 1.
class fault_injector {
 public:
  struct config {
    double base_rate_per_mile = 0.02;  ///< total across all kinds at maturity 1
    double learning_exponent = 0.35;   ///< rate ~ (cum_miles+1)^-exponent
    double maturity_floor = 0.05;      ///< rates never fall below floor * base
    double environment_share = 0.25;   ///< share of hazards that are external
  };

  explicit fault_injector(config cfg, std::uint64_t seed);

  /// Draws the faults manifesting over `miles` of driving given fleet
  /// cumulative miles `cum_miles` (Poisson per kind).
  std::vector<fault_kind> draw_faults(double miles, double cum_miles);

  /// Current total rate per mile at the given cumulative mileage.
  double rate_per_mile(double cum_miles) const;

 private:
  config cfg_;
  rng gen_;
  std::vector<double> weights_;  // per kind, sums to 1
};

}  // namespace avtk::sim
