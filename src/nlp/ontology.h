// avtk/nlp/ontology.h
//
// The STPA-derived fault ontology of Table III: fault *tags* assigned to
// individual disengagement descriptions, and the failure *categories*
// (ML/Design vs. System vs. Unknown) they roll up into. The "AV Controller"
// tag is context-sensitive in the paper (System when the controller does
// not respond, ML/Design when it decides wrongly), so it appears here as
// two tags sharing a display name.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>

namespace avtk::nlp {

/// Fault tags per Table III plus the Fig. 6 legend.
enum class fault_tag {
  environment,                    ///< construction zones, emergency vehicles, weather
  computer_system,                ///< processor overload etc.
  recognition_system,             ///< perception failed to recognize the scene
  planner,                        ///< failed to anticipate other drivers
  sensor,                         ///< sensor failed to localize in time
  network,                        ///< data rate exceeded network capacity
  design_bug,                     ///< unforeseen situation not designed for
  software,                       ///< hang, crash, software fault
  av_controller_system,           ///< controller did not respond to commands
  av_controller_ml,               ///< controller made wrong decisions/predictions
  hang_crash,                     ///< watchdog timer error
  incorrect_behavior_prediction,  ///< mispredicted another road user
  unknown,                        ///< "Unknown-T": no tag could be assigned
};

inline constexpr std::array<fault_tag, 13> k_all_fault_tags = {
    fault_tag::environment,
    fault_tag::computer_system,
    fault_tag::recognition_system,
    fault_tag::planner,
    fault_tag::sensor,
    fault_tag::network,
    fault_tag::design_bug,
    fault_tag::software,
    fault_tag::av_controller_system,
    fault_tag::av_controller_ml,
    fault_tag::hang_crash,
    fault_tag::incorrect_behavior_prediction,
    fault_tag::unknown,
};

/// Root failure categories (Table III / Table IV).
enum class failure_category {
  ml_design,  ///< machine-learning / design faults
  system,     ///< computing-system (hardware + software) faults
  unknown,    ///< "Unknown-C"
};

/// Finer split of ML/Design used by Table IV's two sub-columns.
enum class ml_subcategory {
  planner_controller,
  perception_recognition,
  not_ml,  ///< tag is not an ML/Design tag
};

/// STPA control-structure component a tag localizes to (Fig. 3).
enum class stpa_component {
  sensors,
  recognition,
  planner_controller,
  follower_actuators,
  mechanical,
  network,
  driver,
  unknown,
};

/// Display name as used in the paper ("Recognition System", "Hang/Crash").
std::string_view tag_name(fault_tag tag);

/// Stable machine identifier ("recognition_system").
std::string_view tag_id(fault_tag tag);

/// Parses either a display name or a machine id, case-insensitively.
std::optional<fault_tag> tag_from_string(std::string_view s);

/// Table III: category of each tag.
failure_category category_of(fault_tag tag);

/// Footnote-5 policy: Environment and Recognition System count as
/// perception; Planner, Incorrect Behavior Prediction, Design Bug and the
/// ML side of AV Controller count as planning/control.
ml_subcategory ml_subcategory_of(fault_tag tag);

std::string_view category_name(failure_category c);
std::optional<failure_category> category_from_string(std::string_view s);

}  // namespace avtk::nlp
