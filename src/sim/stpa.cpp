#include "sim/stpa.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/errors.h"
#include "util/table.h"

namespace avtk::sim::stpa {

std::string_view uca_kind_name(uca_kind k) {
  switch (k) {
    case uca_kind::not_provided: return "not provided";
    case uca_kind::provided_unsafe: return "provided, causes hazard";
    case uca_kind::wrong_timing: return "wrong timing/order";
    case uca_kind::wrong_duration: return "wrong duration";
  }
  throw logic_error("unreachable uca_kind");
}

control_structure control_structure::autonomous_driving_system() {
  control_structure s;
  using c = nlp::stpa_component;

  s.nodes_ = {
      {"av_driver", "AV Safety Driver", node_kind::human, c::driver},
      {"nonav_driver", "Non-AV Driver", node_kind::human, c::unknown},
      {"sensors", "Sensors (GPS/RADAR/LIDAR/Camera/SONAR)", node_kind::sensor_bank,
       c::sensors},
      {"recognition", "Recognition System", node_kind::controller, c::recognition},
      {"planner_controller", "Planner & Controller", node_kind::controller,
       c::planner_controller},
      {"follower", "Follower", node_kind::controller, c::follower_actuators},
      {"actuators", "Actuators", node_kind::actuator_bank, c::follower_actuators},
      {"mechanical", "Mechanical Components", node_kind::controlled_process, c::mechanical},
      {"environment", "Road Environment", node_kind::controlled_process, c::unknown},
  };

  s.edges_ = {
      // Downward control path.
      {"recognition", "planner_controller", edge_kind::control_action,
       "scene model / object tracks"},
      {"planner_controller", "follower", edge_kind::control_action, "trajectory commands"},
      {"follower", "actuators", edge_kind::control_action, "actuation setpoints"},
      {"actuators", "mechanical", edge_kind::control_action, "steering/throttle/brake force"},
      // The human fall-back path.
      {"av_driver", "mechanical", edge_kind::control_action, "manual takeover inputs"},
      {"planner_controller", "av_driver", edge_kind::feedback, "takeover requests / alerts"},
      // Sensing & feedback path.
      {"environment", "sensors", edge_kind::feedback, "physical signals"},
      {"sensors", "recognition", edge_kind::feedback, "raw sensor frames"},
      {"mechanical", "follower", edge_kind::feedback, "odometry / actuator state"},
      {"mechanical", "environment", edge_kind::control_action, "vehicle motion"},
      {"environment", "av_driver", edge_kind::feedback, "direct observation"},
      // Interaction with other road users (the CL-1 outer loop).
      {"nonav_driver", "environment", edge_kind::control_action, "other-vehicle motion"},
      {"environment", "nonav_driver", edge_kind::feedback,
       "AV signals (brake lights, indicators, horn)"},
  };

  s.loops_ = {
      {"CL-1",
       "autonomous control + mechanical system + human drivers (the full outer loop of the "
       "two case studies)",
       {"environment", "sensors", "recognition", "planner_controller", "follower",
        "actuators", "mechanical", "environment"}},
      {"CL-2", "perception-control inner loop",
       {"environment", "sensors", "recognition", "planner_controller", "av_driver",
        "mechanical", "environment"}},
      {"CL-3", "actuation tracking loop",
       {"follower", "actuators", "mechanical", "follower"}},
  };

  using fk = fault_kind;
  s.ucas_ = {
      {"planner_controller", "brake/yield for crossing pedestrian", uca_kind::not_provided,
       "collision with vulnerable road user",
       {fk::missed_detection, fk::late_detection, fk::sensor_dropout}},
      {"planner_controller", "brake/yield for crossing pedestrian", uca_kind::wrong_duration,
       "yield without stopping leaves conflict unresolved (Case Study I)",
       {fk::wrong_prediction, fk::bad_decision}},
      {"planner_controller", "proceed through intersection", uca_kind::wrong_timing,
       "stop-and-creep confuses following traffic (Case Study II)",
       {fk::wrong_prediction, fk::reckless_road_user}},
      {"planner_controller", "trajectory command stream", uca_kind::not_provided,
       "vehicle without control authority",
       {fk::software_crash, fk::watchdog_timeout, fk::compute_overload}},
      {"planner_controller", "trajectory command stream", uca_kind::provided_unsafe,
       "infeasible or unsafe path commanded",
       {fk::infeasible_plan, fk::bad_decision, fk::false_detection}},
      {"follower", "actuation setpoints", uca_kind::not_provided,
       "commanded maneuver never executed",
       {fk::actuation_timeout, fk::network_overload}},
      {"recognition", "scene model updates", uca_kind::wrong_timing,
       "stale world model downstream",
       {fk::late_detection, fk::compute_overload, fk::network_overload,
        fk::weather_degradation}},
      {"recognition", "scene model updates", uca_kind::provided_unsafe,
       "phantom objects trigger unnecessary evasive action",
       {fk::false_detection, fk::sensor_miscalibration}},
      {"sensors", "localization fixes", uca_kind::not_provided,
       "vehicle lost relative to map",
       {fk::gps_loss, fk::sensor_dropout, fk::sensor_miscalibration}},
      {"av_driver", "manual takeover", uca_kind::wrong_timing,
       "takeover after the action window closed (reaction-time accidents)",
       {fk::construction_zone, fk::reckless_road_user, fk::wrong_prediction}},
  };
  return s;
}

const node* control_structure::find_node(std::string_view id) const {
  for (const auto& n : nodes_) {
    if (n.id == id) return &n;
  }
  return nullptr;
}

std::vector<const unsafe_control_action*> control_structure::ucas_caused_by(
    fault_kind fault) const {
  std::vector<const unsafe_control_action*> out;
  for (const auto& uca : ucas_) {
    if (std::find(uca.causal_factors.begin(), uca.causal_factors.end(), fault) !=
        uca.causal_factors.end()) {
      out.push_back(&uca);
    }
  }
  return out;
}

std::size_t control_structure::validate() const {
  std::size_t checks = 0;

  const auto require = [&checks](bool ok, const std::string& what) {
    ++checks;
    if (!ok) throw logic_error("STPA structure invalid: " + what);
  };

  std::set<std::string> ids;
  for (const auto& n : nodes_) {
    require(!n.id.empty() && !n.label.empty(), "node with empty id/label");
    require(ids.insert(n.id).second, "duplicate node id " + n.id);
  }
  for (const auto& e : edges_) {
    require(find_node(e.from) != nullptr, "edge from unknown node " + e.from);
    require(find_node(e.to) != nullptr, "edge into unknown node " + e.to);
    require(!e.label.empty(), "unlabeled edge " + e.from + "->" + e.to);
  }
  for (const auto& loop : loops_) {
    require(loop.node_ids.size() >= 3, "loop " + loop.id + " too short");
    require(loop.node_ids.front() == loop.node_ids.back(),
            "loop " + loop.id + " is not closed");
    for (std::size_t i = 0; i + 1 < loop.node_ids.size(); ++i) {
      const auto& from = loop.node_ids[i];
      const auto& to = loop.node_ids[i + 1];
      bool edge_exists = false;
      for (const auto& e : edges_) {
        if (e.from == from && e.to == to) edge_exists = true;
      }
      require(edge_exists, "loop " + loop.id + " uses missing edge " + from + "->" + to);
    }
  }
  for (const auto& uca : ucas_) {
    require(find_node(uca.controller) != nullptr, "UCA on unknown controller " + uca.controller);
    require(!uca.causal_factors.empty(), "UCA without causal factors: " + uca.action);
  }
  // Coverage: every injectable fault must be a causal factor of some UCA or
  // at least map to a component present in the structure.
  for (const auto k : all_fault_kinds()) {
    bool covered = !ucas_caused_by(k).empty();
    if (!covered) {
      const auto comp = component_of(k);
      for (const auto& n : nodes_) {
        if (n.component == comp) covered = true;
      }
    }
    require(covered, std::string("fault kind uncovered: ") + std::string(fault_kind_name(k)));
  }
  return checks;
}

std::vector<component_overlay> overlay_events(const std::vector<hazard_event>& events) {
  std::map<nlp::stpa_component, component_overlay> cells;
  for (const auto& ev : events) {
    auto& c = cells[component_of(ev.fault)];
    c.component = component_of(ev.fault);
    ++c.hazards;
    switch (ev.outcome) {
      case hazard_outcome::absorbed: ++c.absorbed; break;
      case hazard_outcome::accident:
        ++c.accidents;
        ++c.disengagements;  // an accident implies a handover too
        break;
      default: ++c.disengagements; break;
    }
  }
  std::vector<component_overlay> out;
  for (auto& [comp, cell] : cells) out.push_back(cell);
  std::sort(out.begin(), out.end(), [](const component_overlay& a, const component_overlay& b) {
    return a.hazards > b.hazards;
  });
  return out;
}

std::string render_overlay(const std::vector<component_overlay>& overlay) {
  const auto component_label = [](nlp::stpa_component c) -> std::string {
    switch (c) {
      case nlp::stpa_component::sensors: return "Sensors";
      case nlp::stpa_component::recognition: return "Recognition";
      case nlp::stpa_component::planner_controller: return "Planner & Controller";
      case nlp::stpa_component::follower_actuators: return "Follower/Actuators";
      case nlp::stpa_component::mechanical: return "Mechanical";
      case nlp::stpa_component::network: return "Network";
      case nlp::stpa_component::driver: return "Driver";
      case nlp::stpa_component::unknown: return "Unknown";
    }
    return "Unknown";
  };
  text_table t({"STPA component", "Hazards", "Disengagements", "Accidents", "Absorbed"});
  t.set_title("Observed events overlaid on the control structure");
  for (const auto& row : overlay) {
    t.add_row({component_label(row.component), std::to_string(row.hazards),
               std::to_string(row.disengagements), std::to_string(row.accidents),
               std::to_string(row.absorbed)});
  }
  return t.render();
}

}  // namespace avtk::sim::stpa
