#include "nlp/ontology.h"

#include <gtest/gtest.h>

namespace avtk::nlp {
namespace {

TEST(Ontology, TableIIICategoryAssignments) {
  EXPECT_EQ(category_of(fault_tag::environment), failure_category::ml_design);
  EXPECT_EQ(category_of(fault_tag::computer_system), failure_category::system);
  EXPECT_EQ(category_of(fault_tag::recognition_system), failure_category::ml_design);
  EXPECT_EQ(category_of(fault_tag::planner), failure_category::ml_design);
  EXPECT_EQ(category_of(fault_tag::sensor), failure_category::system);
  EXPECT_EQ(category_of(fault_tag::network), failure_category::system);
  EXPECT_EQ(category_of(fault_tag::design_bug), failure_category::ml_design);
  EXPECT_EQ(category_of(fault_tag::software), failure_category::system);
  EXPECT_EQ(category_of(fault_tag::hang_crash), failure_category::system);
  EXPECT_EQ(category_of(fault_tag::unknown), failure_category::unknown);
}

TEST(Ontology, AvControllerIsContextSensitive) {
  // Table III: "System" when unresponsive, "ML/Design" when deciding wrong.
  EXPECT_EQ(category_of(fault_tag::av_controller_system), failure_category::system);
  EXPECT_EQ(category_of(fault_tag::av_controller_ml), failure_category::ml_design);
  EXPECT_EQ(tag_name(fault_tag::av_controller_system), tag_name(fault_tag::av_controller_ml));
}

TEST(Ontology, MlSubcategorySplit) {
  // Footnote 5: environment counts as perception.
  EXPECT_EQ(ml_subcategory_of(fault_tag::environment),
            ml_subcategory::perception_recognition);
  EXPECT_EQ(ml_subcategory_of(fault_tag::recognition_system),
            ml_subcategory::perception_recognition);
  EXPECT_EQ(ml_subcategory_of(fault_tag::planner), ml_subcategory::planner_controller);
  EXPECT_EQ(ml_subcategory_of(fault_tag::incorrect_behavior_prediction),
            ml_subcategory::planner_controller);
  EXPECT_EQ(ml_subcategory_of(fault_tag::software), ml_subcategory::not_ml);
}

TEST(Ontology, RoundTripIds) {
  for (const auto tag : k_all_fault_tags) {
    EXPECT_EQ(tag_from_string(tag_id(tag)).value(), tag) << tag_id(tag);
  }
}

TEST(Ontology, DisplayNamesParse) {
  EXPECT_EQ(tag_from_string("Recognition System").value(), fault_tag::recognition_system);
  EXPECT_EQ(tag_from_string("hang/crash").value(), fault_tag::hang_crash);
  EXPECT_EQ(tag_from_string("Unknown-T").value(), fault_tag::unknown);
  EXPECT_FALSE(tag_from_string("no such tag"));
}

TEST(Ontology, AmbiguousControllerNameResolvesToSystem) {
  EXPECT_EQ(tag_from_string("AV Controller").value(), fault_tag::av_controller_system);
}

TEST(Ontology, CategoryNamesRoundTrip) {
  for (const auto c : {failure_category::ml_design, failure_category::system,
                       failure_category::unknown}) {
    EXPECT_EQ(category_from_string(category_name(c)).value(), c);
  }
  EXPECT_FALSE(category_from_string("nope"));
}

TEST(Ontology, EveryTagHasNameAndId) {
  for (const auto tag : k_all_fault_tags) {
    EXPECT_FALSE(tag_name(tag).empty());
    EXPECT_FALSE(tag_id(tag).empty());
  }
}

}  // namespace
}  // namespace avtk::nlp
