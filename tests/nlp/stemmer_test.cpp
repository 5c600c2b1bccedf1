#include "nlp/stemmer.h"

#include <gtest/gtest.h>

#include <ostream>

namespace avtk::nlp {
namespace {

// Classic Porter reference pairs (from the published test vocabulary).
struct stem_pair {
  const char* word;
  const char* expected;
};

// Print the pair by value. ctest names embed the printed parameter; gtest's default
// dumps the two string-literal addresses, which change with every build and run.
void PrintTo(const stem_pair& pair, std::ostream* os) {
  *os << pair.word << "_" << pair.expected;
}

class PorterReference : public ::testing::TestWithParam<stem_pair> {};

TEST_P(PorterReference, MatchesPublishedStem) {
  EXPECT_EQ(stem(GetParam().word), GetParam().expected) << GetParam().word;
}

INSTANTIATE_TEST_SUITE_P(
    Vocabulary, PorterReference,
    ::testing::Values(
        stem_pair{"caresses", "caress"}, stem_pair{"ponies", "poni"},
        stem_pair{"ties", "ti"}, stem_pair{"caress", "caress"}, stem_pair{"cats", "cat"},
        stem_pair{"feed", "feed"}, stem_pair{"agreed", "agre"},
        stem_pair{"plastered", "plaster"}, stem_pair{"bled", "bled"},
        stem_pair{"motoring", "motor"}, stem_pair{"sing", "sing"},
        stem_pair{"conflated", "conflat"}, stem_pair{"troubled", "troubl"},
        stem_pair{"sized", "size"}, stem_pair{"hopping", "hop"},
        stem_pair{"tanned", "tan"}, stem_pair{"falling", "fall"},
        stem_pair{"hissing", "hiss"}, stem_pair{"fizzed", "fizz"},
        stem_pair{"failing", "fail"}, stem_pair{"filing", "file"},
        stem_pair{"happy", "happi"}, stem_pair{"sky", "sky"},
        stem_pair{"relational", "relat"}, stem_pair{"conditional", "condit"},
        stem_pair{"rational", "ration"}, stem_pair{"valenci", "valenc"},
        stem_pair{"digitizer", "digit"}, stem_pair{"operator", "oper"},
        stem_pair{"feudalism", "feudal"}, stem_pair{"decisiveness", "decis"},
        stem_pair{"hopefulness", "hope"}, stem_pair{"formaliti", "formal"},
        stem_pair{"triplicate", "triplic"}, stem_pair{"formative", "form"},
        stem_pair{"formalize", "formal"}, stem_pair{"electrical", "electr"},
        stem_pair{"hopeful", "hope"}, stem_pair{"goodness", "good"},
        stem_pair{"revival", "reviv"}, stem_pair{"allowance", "allow"},
        stem_pair{"inference", "infer"}, stem_pair{"airliner", "airlin"},
        stem_pair{"adjustable", "adjust"}, stem_pair{"defensible", "defens"},
        stem_pair{"irritant", "irrit"}, stem_pair{"replacement", "replac"},
        stem_pair{"adjustment", "adjust"}, stem_pair{"dependent", "depend"},
        stem_pair{"adoption", "adopt"}, stem_pair{"communism", "commun"},
        stem_pair{"activate", "activ"}, stem_pair{"angulariti", "angular"},
        stem_pair{"homologous", "homolog"}, stem_pair{"effective", "effect"},
        stem_pair{"bowdlerize", "bowdler"}, stem_pair{"probate", "probat"},
        stem_pair{"rate", "rate"}, stem_pair{"cease", "ceas"},
        stem_pair{"controll", "control"}, stem_pair{"roll", "roll"}));

// Domain vocabulary: the stems the classifier actually leans on.
TEST(PorterDomain, DisengagementFamily) {
  EXPECT_EQ(stem("disengaged"), stem("disengage"));
  // Note: "disengagement" stems to disengag + "ement" strip = "disengag".
  EXPECT_EQ(stem("disengagement"), "disengag");
}

TEST(PorterDomain, DetectionFamily) {
  EXPECT_EQ(stem("detected"), stem("detect"));
  EXPECT_EQ(stem("detection"), "detect");
  EXPECT_EQ(stem("detecting"), "detect");
}

TEST(PorterDomain, PredictionFamily) {
  EXPECT_EQ(stem("prediction"), "predict");
  EXPECT_EQ(stem("predicted"), "predict");
  EXPECT_EQ(stem("mispredicted"), "mispredict");
}

TEST(PorterDomain, PlanningFamily) {
  EXPECT_EQ(stem("planning"), "plan");
  EXPECT_EQ(stem("planned"), "plan");
  EXPECT_EQ(stem("planner"), "planner");  // -er strips only at measure > 1
}

TEST(Porter, WordsUnderThreeCharsUnchanged) {
  EXPECT_EQ(stem("av"), "av");
  EXPECT_EQ(stem("a"), "a");
  EXPECT_EQ(stem(""), "");
}

TEST(Porter, AcronymsFollowPluralRuleLikeAnyWord) {
  // Porter has no acronym special case: "gps" is treated as a plural. The
  // dictionary side stems with the same function, so matching still works.
  EXPECT_EQ(stem("gps"), "gp");
}

TEST(Porter, IdempotentOnCommonStems) {
  for (const char* w : {"detect", "sensor", "softwar", "watchdog", "environ", "planner"}) {
    EXPECT_EQ(stem(stem(w)), stem(w)) << w;
  }
}

TEST(Porter, NeverLengthens) {
  for (const char* w : {"disengagements", "recognition", "localization", "calibration",
                        "unresponsive", "infeasible", "overload", "misbehaving"}) {
    EXPECT_LE(stem(w).size(), std::string_view(w).size()) << w;
  }
}

TEST(StemAll, MapsEachWord) {
  const auto stems = stem_all({"failed", "to", "detect", "pedestrians"});
  EXPECT_EQ(stems.size(), 4u);
  EXPECT_EQ(stems[2], "detect");
  EXPECT_EQ(stems[3], "pedestrian");
}

}  // namespace
}  // namespace avtk::nlp
