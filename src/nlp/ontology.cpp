#include "nlp/ontology.h"

#include "util/errors.h"
#include "util/strings.h"

namespace avtk::nlp {

std::string_view tag_name(fault_tag tag) {
  switch (tag) {
    case fault_tag::environment: return "Environment";
    case fault_tag::computer_system: return "Computer System";
    case fault_tag::recognition_system: return "Recognition System";
    case fault_tag::planner: return "Planner";
    case fault_tag::sensor: return "Sensor";
    case fault_tag::network: return "Network";
    case fault_tag::design_bug: return "Design Bug";
    case fault_tag::software: return "Software";
    case fault_tag::av_controller_system: return "AV Controller";
    case fault_tag::av_controller_ml: return "AV Controller";
    case fault_tag::hang_crash: return "Hang/Crash";
    case fault_tag::incorrect_behavior_prediction: return "Incorrect Behavior Prediction";
    case fault_tag::unknown: return "Unknown-T";
  }
  throw logic_error("unreachable fault_tag");
}

std::string_view tag_id(fault_tag tag) {
  switch (tag) {
    case fault_tag::environment: return "environment";
    case fault_tag::computer_system: return "computer_system";
    case fault_tag::recognition_system: return "recognition_system";
    case fault_tag::planner: return "planner";
    case fault_tag::sensor: return "sensor";
    case fault_tag::network: return "network";
    case fault_tag::design_bug: return "design_bug";
    case fault_tag::software: return "software";
    case fault_tag::av_controller_system: return "av_controller_system";
    case fault_tag::av_controller_ml: return "av_controller_ml";
    case fault_tag::hang_crash: return "hang_crash";
    case fault_tag::incorrect_behavior_prediction: return "incorrect_behavior_prediction";
    case fault_tag::unknown: return "unknown";
  }
  throw logic_error("unreachable fault_tag");
}

std::optional<fault_tag> tag_from_string(std::string_view s) {
  for (const auto tag : k_all_fault_tags) {
    if (str::iequals(s, tag_id(tag))) return tag;
  }
  // Display names; "AV Controller" is ambiguous between the two controller
  // tags — resolve to the System interpretation (Table III lists it first).
  for (const auto tag : k_all_fault_tags) {
    if (tag == fault_tag::av_controller_ml) continue;
    if (str::iequals(s, tag_name(tag))) return tag;
  }
  return std::nullopt;
}

failure_category category_of(fault_tag tag) {
  switch (tag) {
    case fault_tag::environment:
    case fault_tag::recognition_system:
    case fault_tag::planner:
    case fault_tag::design_bug:
    case fault_tag::av_controller_ml:
    case fault_tag::incorrect_behavior_prediction:
      return failure_category::ml_design;
    case fault_tag::computer_system:
    case fault_tag::sensor:
    case fault_tag::network:
    case fault_tag::software:
    case fault_tag::av_controller_system:
    case fault_tag::hang_crash:
      return failure_category::system;
    case fault_tag::unknown:
      return failure_category::unknown;
  }
  throw logic_error("unreachable fault_tag");
}

ml_subcategory ml_subcategory_of(fault_tag tag) {
  if (category_of(tag) != failure_category::ml_design) return ml_subcategory::not_ml;
  switch (tag) {
    case fault_tag::environment:
    case fault_tag::recognition_system:
      return ml_subcategory::perception_recognition;
    default:
      return ml_subcategory::planner_controller;
  }
}

std::string_view category_name(failure_category c) {
  switch (c) {
    case failure_category::ml_design: return "ML/Design";
    case failure_category::system: return "System";
    case failure_category::unknown: return "Unknown-C";
  }
  throw logic_error("unreachable failure_category");
}

std::optional<failure_category> category_from_string(std::string_view s) {
  if (str::iequals(s, "ML/Design") || str::iequals(s, "ml_design")) {
    return failure_category::ml_design;
  }
  if (str::iequals(s, "System") || str::iequals(s, "system")) return failure_category::system;
  if (str::iequals(s, "Unknown-C") || str::iequals(s, "unknown")) {
    return failure_category::unknown;
  }
  return std::nullopt;
}

}  // namespace avtk::nlp
