#include "sim/stpa.h"

#include <gtest/gtest.h>

#include "sim/fleet.h"
#include "util/errors.h"

namespace avtk::sim::stpa {
namespace {

const control_structure& ads() {
  static const control_structure s = control_structure::autonomous_driving_system();
  return s;
}

TEST(Stpa, CanonicalStructureValidates) {
  EXPECT_GT(ads().validate(), 40u);
}

TEST(Stpa, HasTheFigure3Components) {
  for (const char* id : {"av_driver", "nonav_driver", "sensors", "recognition",
                         "planner_controller", "follower", "actuators", "mechanical"}) {
    EXPECT_NE(ads().find_node(id), nullptr) << id;
  }
  EXPECT_EQ(ads().find_node("flux_capacitor"), nullptr);
}

TEST(Stpa, ThreeControlLoopsAsInThePaper) {
  ASSERT_EQ(ads().loops().size(), 3u);
  EXPECT_EQ(ads().loops()[0].id, "CL-1");
  // CL-1 is the most complex loop — it spans the most nodes.
  for (const auto& loop : ads().loops()) {
    EXPECT_LE(loop.node_ids.size(), ads().loops()[0].node_ids.size());
  }
}

TEST(Stpa, ControlAndFeedbackEdgesBothPresent) {
  bool control = false;
  bool feedback = false;
  for (const auto& e : ads().edges()) {
    if (e.kind == edge_kind::control_action) control = true;
    if (e.kind == edge_kind::feedback) feedback = true;
  }
  EXPECT_TRUE(control);
  EXPECT_TRUE(feedback);
}

TEST(Stpa, EveryFaultKindCausesSomeUcaOrMapsToANode) {
  // validate() enforces this; spot-check the causal queries directly.
  EXPECT_FALSE(ads().ucas_caused_by(fault_kind::missed_detection).empty());
  EXPECT_FALSE(ads().ucas_caused_by(fault_kind::watchdog_timeout).empty());
  EXPECT_FALSE(ads().ucas_caused_by(fault_kind::wrong_prediction).empty());
}

TEST(Stpa, CaseStudyUcasPresent) {
  // The two §II case studies appear as enumerated UCAs.
  bool case1 = false;
  bool case2 = false;
  for (const auto& uca : ads().ucas()) {
    if (uca.hazard.find("Case Study I") != std::string::npos) case1 = true;
    if (uca.hazard.find("Case Study II") != std::string::npos) case2 = true;
  }
  EXPECT_TRUE(case1);
  EXPECT_TRUE(case2);
}

TEST(Stpa, AllFourGuidePhrasesUsed) {
  std::set<uca_kind> kinds;
  for (const auto& uca : ads().ucas()) kinds.insert(uca.kind);
  EXPECT_EQ(kinds.size(), 4u);
}

TEST(StpaOverlay, CountsAreConsistentWithFleetTotals) {
  fleet_config cfg;
  cfg.vehicles = 8;
  cfg.months = 12;
  cfg.seed = 99;
  const auto result = run_fleet(cfg);
  const auto overlay = overlay_events(result.events);

  long long hazards = 0;
  long long accidents = 0;
  long long absorbed = 0;
  for (const auto& row : overlay) {
    hazards += row.hazards;
    accidents += row.accidents;
    absorbed += row.absorbed;
    EXPECT_EQ(row.hazards, row.disengagements + row.absorbed);
  }
  EXPECT_EQ(hazards, static_cast<long long>(result.events.size()));
  EXPECT_EQ(accidents, result.accidents);
  EXPECT_EQ(absorbed, result.absorbed);
}

TEST(StpaOverlay, RecognitionDominatesHazards) {
  // The fault injector concentrates hazards in perception — the paper's
  // headline finding; the overlay should reflect it.
  fleet_config cfg;
  cfg.vehicles = 10;
  cfg.months = 18;
  cfg.seed = 100;
  const auto overlay = overlay_events(run_fleet(cfg).events);
  ASSERT_FALSE(overlay.empty());
  EXPECT_EQ(overlay.front().component, nlp::stpa_component::recognition);
}

TEST(StpaOverlay, RenderProducesTable) {
  fleet_config cfg;
  cfg.vehicles = 3;
  cfg.months = 4;
  cfg.seed = 101;
  const auto text = render_overlay(overlay_events(run_fleet(cfg).events));
  EXPECT_NE(text.find("STPA component"), std::string::npos);
}

}  // namespace
}  // namespace avtk::sim::stpa
