#include "sim/faults.h"

#include <cmath>

#include "util/errors.h"

namespace avtk::sim {

std::vector<fault_kind> all_fault_kinds() {
  return {
      fault_kind::sensor_dropout,     fault_kind::sensor_miscalibration,
      fault_kind::gps_loss,           fault_kind::missed_detection,
      fault_kind::false_detection,    fault_kind::late_detection,
      fault_kind::infeasible_plan,    fault_kind::wrong_prediction,
      fault_kind::bad_decision,       fault_kind::actuation_timeout,
      fault_kind::software_crash,     fault_kind::watchdog_timeout,
      fault_kind::compute_overload,   fault_kind::network_overload,
      fault_kind::reckless_road_user, fault_kind::construction_zone,
      fault_kind::weather_degradation,
  };
}

std::string_view fault_kind_name(fault_kind k) {
  switch (k) {
    case fault_kind::sensor_dropout: return "sensor_dropout";
    case fault_kind::sensor_miscalibration: return "sensor_miscalibration";
    case fault_kind::gps_loss: return "gps_loss";
    case fault_kind::missed_detection: return "missed_detection";
    case fault_kind::false_detection: return "false_detection";
    case fault_kind::late_detection: return "late_detection";
    case fault_kind::infeasible_plan: return "infeasible_plan";
    case fault_kind::wrong_prediction: return "wrong_prediction";
    case fault_kind::bad_decision: return "bad_decision";
    case fault_kind::actuation_timeout: return "actuation_timeout";
    case fault_kind::software_crash: return "software_crash";
    case fault_kind::watchdog_timeout: return "watchdog_timeout";
    case fault_kind::compute_overload: return "compute_overload";
    case fault_kind::network_overload: return "network_overload";
    case fault_kind::reckless_road_user: return "reckless_road_user";
    case fault_kind::construction_zone: return "construction_zone";
    case fault_kind::weather_degradation: return "weather_degradation";
  }
  throw logic_error("unreachable fault_kind");
}

nlp::stpa_component component_of(fault_kind k) {
  switch (k) {
    case fault_kind::sensor_dropout:
    case fault_kind::sensor_miscalibration:
    case fault_kind::gps_loss:
      return nlp::stpa_component::sensors;
    case fault_kind::missed_detection:
    case fault_kind::false_detection:
    case fault_kind::late_detection:
      return nlp::stpa_component::recognition;
    case fault_kind::infeasible_plan:
    case fault_kind::wrong_prediction:
    case fault_kind::bad_decision:
    case fault_kind::software_crash:
    case fault_kind::watchdog_timeout:
    case fault_kind::compute_overload:
      return nlp::stpa_component::planner_controller;
    case fault_kind::actuation_timeout:
      return nlp::stpa_component::follower_actuators;
    case fault_kind::network_overload:
      return nlp::stpa_component::network;
    case fault_kind::reckless_road_user:
    case fault_kind::construction_zone:
    case fault_kind::weather_degradation:
      return nlp::stpa_component::recognition;  // manifests through perception
  }
  throw logic_error("unreachable fault_kind");
}

nlp::fault_tag tag_of(fault_kind k) {
  switch (k) {
    case fault_kind::sensor_dropout:
    case fault_kind::sensor_miscalibration:
    case fault_kind::gps_loss:
      return nlp::fault_tag::sensor;
    case fault_kind::missed_detection:
    case fault_kind::false_detection:
    case fault_kind::late_detection:
      return nlp::fault_tag::recognition_system;
    case fault_kind::infeasible_plan:
      return nlp::fault_tag::planner;
    case fault_kind::wrong_prediction:
      return nlp::fault_tag::incorrect_behavior_prediction;
    case fault_kind::bad_decision:
      return nlp::fault_tag::av_controller_ml;
    case fault_kind::actuation_timeout:
      return nlp::fault_tag::av_controller_system;
    case fault_kind::software_crash:
      return nlp::fault_tag::software;
    case fault_kind::watchdog_timeout:
      return nlp::fault_tag::hang_crash;
    case fault_kind::compute_overload:
      return nlp::fault_tag::computer_system;
    case fault_kind::network_overload:
      return nlp::fault_tag::network;
    case fault_kind::reckless_road_user:
    case fault_kind::construction_zone:
    case fault_kind::weather_degradation:
      return nlp::fault_tag::environment;
  }
  throw logic_error("unreachable fault_kind");
}

std::string describe_fault(fault_kind k, rng& gen) {
  const auto pick = [&gen](std::vector<std::string> options) {
    return gen.pick(options);
  };
  switch (k) {
    case fault_kind::sensor_dropout:
      return pick({"LIDAR dropout during operation.", "Camera blackout for several frames.",
                   "RADAR malfunction reported by the sensor monitor."});
    case fault_kind::sensor_miscalibration:
      return pick({"Calibration drift on the forward sensor suite.",
                   "Sensor reading invalid; redundant channel disagreed."});
    case fault_kind::gps_loss:
      return pick({"GPS signal lost under the overpass.", "Sensor failed to localize in time."});
    case fault_kind::missed_detection:
      return pick({"The AV didn't see the lead vehicle.",
                   "Missed detection of a merging vehicle.",
                   "Failed to detect a pedestrian at the crosswalk in time."});
    case fault_kind::false_detection:
      return pick({"False obstacle reported by the perception system.",
                   "Misdetected obstacle in the adjacent lane."});
    case fault_kind::late_detection:
      return pick({"Perception system failed to detect the traffic light state.",
                   "Recognition system failed to recognize a stop sign in time."});
    case fault_kind::infeasible_plan:
      return pick({"Motion planning produced an infeasible path around the obstruction.",
                   "Trajectory planning error during the lane change."});
    case fault_kind::wrong_prediction:
      return pick({"Incorrect behavior prediction for the adjacent vehicle.",
                   "Failed to predict behavior of the merging truck."});
    case fault_kind::bad_decision:
      return pick({"Controller made a wrong decision at the intersection.",
                   "Poor decision in a complex traffic scenario."});
    case fault_kind::actuation_timeout:
      return pick({"AV controller did not respond to commands.",
                   "Steering command ignored by the actuation layer."});
    case fault_kind::software_crash:
      return pick({"Software crash in the planning process.", "Software module froze."});
    case fault_kind::watchdog_timeout:
      return pick({"Watchdog timer expired on the control computer.",
                   "Watchdog timeout triggered a takeover request."});
    case fault_kind::compute_overload:
      return pick({"Processor overload on the compute platform.",
                   "High CPU load caused delayed perception output."});
    case fault_kind::network_overload:
      return pick({"Data rate too high to be handled by the network.",
                   "CAN bus overload dropped actuation messages."});
    case fault_kind::reckless_road_user:
      return "Disengage for a recklessly behaving road user.";
    case fault_kind::construction_zone:
      return "Undetected construction zone forced a takeover.";
    case fault_kind::weather_degradation:
      return pick({"Heavy rain degraded visibility of the roadway.",
                   "Sun glare on the roadway during late afternoon operation."});
  }
  throw logic_error("unreachable fault_kind");
}

fault_injector::fault_injector(config cfg, std::uint64_t seed) : cfg_(cfg), gen_(seed) {
  if (cfg_.base_rate_per_mile < 0 || cfg_.learning_exponent < 0 ||
      cfg_.maturity_floor <= 0 || cfg_.maturity_floor > 1 ||
      cfg_.environment_share < 0 || cfg_.environment_share > 1) {
    throw logic_error("invalid fault_injector config");
  }
  // Component-fault weights loosely follow the corpus tag mixture: most
  // hazards are perception-related, then planning, then platform.
  weights_.assign(k_fault_kind_count, 0.0);
  const auto set = [&](fault_kind k, double w) {
    weights_[static_cast<std::size_t>(k)] = w;
  };
  const double comp = 1.0 - cfg_.environment_share;
  set(fault_kind::sensor_dropout, comp * 0.05);
  set(fault_kind::sensor_miscalibration, comp * 0.03);
  set(fault_kind::gps_loss, comp * 0.03);
  set(fault_kind::missed_detection, comp * 0.18);
  set(fault_kind::false_detection, comp * 0.10);
  set(fault_kind::late_detection, comp * 0.12);
  set(fault_kind::infeasible_plan, comp * 0.09);
  set(fault_kind::wrong_prediction, comp * 0.10);
  set(fault_kind::bad_decision, comp * 0.05);
  set(fault_kind::actuation_timeout, comp * 0.02);
  set(fault_kind::software_crash, comp * 0.11);
  set(fault_kind::watchdog_timeout, comp * 0.03);
  set(fault_kind::compute_overload, comp * 0.06);
  set(fault_kind::network_overload, comp * 0.03);
  set(fault_kind::reckless_road_user, cfg_.environment_share * 0.5);
  set(fault_kind::construction_zone, cfg_.environment_share * 0.25);
  set(fault_kind::weather_degradation, cfg_.environment_share * 0.25);
}

double fault_injector::rate_per_mile(double cum_miles) const {
  const double maturity = std::pow(cum_miles + 1.0, -cfg_.learning_exponent);
  return cfg_.base_rate_per_mile *
         std::max(maturity, cfg_.maturity_floor);
}

std::vector<fault_kind> fault_injector::draw_faults(double miles, double cum_miles) {
  std::vector<fault_kind> out;
  if (!(miles > 0)) return out;
  const double total_rate = rate_per_mile(cum_miles) * miles;
  const auto count = gen_.poisson(total_rate);
  for (std::int64_t i = 0; i < count; ++i) {
    const auto idx = gen_.categorical(weights_);
    out.push_back(all_fault_kinds()[idx]);
  }
  return out;
}

}  // namespace avtk::sim
