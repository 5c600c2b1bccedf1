// avtk/sim/stpa.h
//
// The paper's §III-B methodology as code: a machine-readable model of the
// Fig. 3 hierarchical control structure (controllers, controlled processes,
// control actions, feedback channels), STPA unsafe-control-action (UCA)
// enumeration in the four canonical guide phrases, and the mapping from
// causal factors to the fault tags of Table III. The analyses overlay
// observed hazard events on this structure, reproducing "accidents and
// disengagements seen in the data were overlaid on this structure".
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "nlp/ontology.h"
#include "sim/faults.h"
#include "sim/vehicle.h"

namespace avtk::sim::stpa {

/// Node kinds in the control structure.
enum class node_kind { controller, controlled_process, sensor_bank, actuator_bank, human };

struct node {
  std::string id;          ///< "planner_controller"
  std::string label;       ///< "Planner & Controller"
  node_kind kind = node_kind::controller;
  nlp::stpa_component component = nlp::stpa_component::unknown;
};

/// A directed edge: a control action (downward) or feedback (upward).
enum class edge_kind { control_action, feedback };

struct edge {
  std::string from;   ///< node id
  std::string to;     ///< node id
  edge_kind kind = edge_kind::control_action;
  std::string label;  ///< "trajectory commands", "detected objects", ...
};

/// One of the paper's highlighted control loops (CL-1..3).
struct control_loop_path {
  std::string id;                      ///< "CL-1"
  std::string description;
  std::vector<std::string> node_ids;   ///< loop members in order
};

/// The four STPA guide phrases for unsafe control actions.
enum class uca_kind {
  not_provided,        ///< required action missing
  provided_unsafe,     ///< action provided when it causes a hazard
  wrong_timing,        ///< too early / too late / wrong order
  wrong_duration,      ///< stopped too soon / applied too long
};

std::string_view uca_kind_name(uca_kind k);

/// One enumerated unsafe control action.
struct unsafe_control_action {
  std::string controller;            ///< node id issuing the action
  std::string action;                ///< the control action
  uca_kind kind = uca_kind::not_provided;
  std::string hazard;                ///< the resulting system hazard
  std::vector<fault_kind> causal_factors;  ///< fault kinds that can cause it
};

/// The AV control structure of Fig. 3.
class control_structure {
 public:
  /// Builds the canonical ADS structure (sensors -> recognition -> planner
  /// & controller -> follower -> actuators -> mechanical, with the AV
  /// driver and the non-AV driver in their loops).
  static control_structure autonomous_driving_system();

  const std::vector<node>& nodes() const { return nodes_; }
  const std::vector<edge>& edges() const { return edges_; }
  const std::vector<control_loop_path>& loops() const { return loops_; }
  const std::vector<unsafe_control_action>& ucas() const { return ucas_; }

  const node* find_node(std::string_view id) const;

  /// UCAs for which `fault` is a listed causal factor.
  std::vector<const unsafe_control_action*> ucas_caused_by(fault_kind fault) const;

  /// Validates structural invariants: edge endpoints exist, loops are
  /// closed paths over existing edges, every UCA controller exists, every
  /// fault kind appears as a causal factor somewhere. Throws
  /// avtk::logic_error on violation; returns the number of checks run.
  std::size_t validate() const;

 private:
  std::vector<node> nodes_;
  std::vector<edge> edges_;
  std::vector<control_loop_path> loops_;
  std::vector<unsafe_control_action> ucas_;
};

/// Overlay of observed events on the structure: per STPA component, how
/// many hazards originated there and what they became (the paper's overlay
/// of disengagements/accidents on Fig. 3).
struct component_overlay {
  nlp::stpa_component component = nlp::stpa_component::unknown;
  long long hazards = 0;
  long long disengagements = 0;
  long long accidents = 0;
  long long absorbed = 0;
};

std::vector<component_overlay> overlay_events(const std::vector<hazard_event>& events);

std::string render_overlay(const std::vector<component_overlay>& overlay);

}  // namespace avtk::sim::stpa
