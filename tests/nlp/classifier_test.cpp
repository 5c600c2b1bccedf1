#include "nlp/classifier.h"

#include <gtest/gtest.h>

#include "dataset/phrase_bank.h"
#include "nlp/stemmer.h"
#include "nlp/stopwords.h"
#include "nlp/tokenizer.h"
#include "nlp_reference.h"

namespace avtk::nlp {
namespace {

keyword_voting_classifier make_classifier() {
  return keyword_voting_classifier(failure_dictionary::builtin());
}

TEST(Classifier, TableIIExamples) {
  const auto cls = make_classifier();
  // The four raw log lines quoted in the paper's Table II.
  EXPECT_EQ(cls.classify("Software module froze. As a result driver safely disengaged and "
                         "resumed manual control.")
                .tag,
            fault_tag::software);
  EXPECT_EQ(cls.classify("The AV didn't see the lead vehicle, driver safely disengaged and "
                         "resumed manual control.")
                .tag,
            fault_tag::recognition_system);
  EXPECT_EQ(cls.classify("Disengage for a recklessly behaving road user").tag,
            fault_tag::environment);
  EXPECT_EQ(cls.classify("Takeover-Request - watchdog error").tag, fault_tag::hang_crash);
}

TEST(Classifier, CategoriesFollowTags) {
  const auto cls = make_classifier();
  const auto c = cls.classify("Processor overload on the compute platform.");
  EXPECT_EQ(c.tag, fault_tag::computer_system);
  EXPECT_EQ(c.category, failure_category::system);
}

TEST(Classifier, UnknownForNoMatch) {
  const auto cls = make_classifier();
  const auto c = cls.classify("Disengagement reported.");
  EXPECT_EQ(c.tag, fault_tag::unknown);
  EXPECT_EQ(c.category, failure_category::unknown);
  EXPECT_DOUBLE_EQ(c.score, 0.0);
  EXPECT_TRUE(c.matched_phrases.empty());
}

TEST(Classifier, EmptyDescription) {
  const auto cls = make_classifier();
  EXPECT_EQ(cls.classify("").tag, fault_tag::unknown);
}

TEST(Classifier, BoilerplateAloneDoesNotVote) {
  const auto cls = make_classifier();
  // Pure narrative shell with zero fault content.
  EXPECT_EQ(cls.classify("Driver safely disengaged and resumed manual control.").tag,
            fault_tag::unknown);
}

TEST(Classifier, InflectionRobustness) {
  const auto cls = make_classifier();
  // Stemming should let morphological variants match.
  EXPECT_EQ(cls.classify("software modules freezing constantly").tag, fault_tag::unknown);
  // ("froze" does not stem to "freez", so this must NOT match — the
  //  dictionary phrase is "software module froze".)
  EXPECT_EQ(cls.classify("the software module froze again").tag, fault_tag::software);
  EXPECT_EQ(cls.classify("watchdog errors occurred twice").tag, fault_tag::hang_crash);
}

TEST(Classifier, ConfidenceReflectsMargin) {
  const auto cls = make_classifier();
  const auto strong = cls.classify("Watchdog timer expired; watchdog reset of the computer.");
  EXPECT_EQ(strong.tag, fault_tag::hang_crash);
  EXPECT_GT(strong.confidence, 0.0);
  EXPECT_LE(strong.confidence, 1.0);
}

TEST(Classifier, MixedSignalsPickHigherScore) {
  const auto cls = make_classifier();
  // Two recognition phrases vs one sensor phrase: recognition should win.
  const auto c = cls.classify(
      "Failed to detect the lead vehicle; missed detection of a cyclist after LIDAR dropout.");
  EXPECT_EQ(c.tag, fault_tag::recognition_system);
  EXPECT_GT(c.runner_up, 0.0);
}

TEST(Classifier, MatchedPhrasesRecorded) {
  const auto cls = make_classifier();
  const auto c = cls.classify("Disengage for a recklessly behaving road user.");
  ASSERT_FALSE(c.matched_phrases.empty());
}

TEST(CountPhraseMatches, ContiguousOnly) {
  using testing::count_phrase_matches;
  EXPECT_EQ(count_phrase_matches({"a", "b", "c"}, {"a", "b"}), 1u);
  EXPECT_EQ(count_phrase_matches({"a", "x", "b"}, {"a", "b"}), 0u);
  EXPECT_EQ(count_phrase_matches({"a", "a", "a"}, {"a", "a"}), 2u);  // overlapping
  EXPECT_EQ(count_phrase_matches({"a"}, {"a", "b"}), 0u);
  EXPECT_EQ(count_phrase_matches({"a"}, {}), 0u);
}

TEST(CountPhraseMatches, EmptyInputs) {
  using testing::count_phrase_matches;
  // Empty stem streams and empty phrases never match, in any combination.
  EXPECT_EQ(count_phrase_matches({}, {"a"}), 0u);
  EXPECT_EQ(count_phrase_matches({}, {"a", "b", "c"}), 0u);
  EXPECT_EQ(count_phrase_matches({}, {}), 0u);
  EXPECT_EQ(count_phrase_matches({"a", "b"}, {}), 0u);
}

// The load-bearing property: every phrase-bank description for a tag must
// classify back to exactly that tag (the generator<->classifier contract
// behind Table IV / Fig. 6).
class PhraseBankRecovery : public ::testing::TestWithParam<fault_tag> {};

TEST_P(PhraseBankRecovery, EveryDescriptionRecoversItsTag) {
  const auto cls = make_classifier();
  for (const auto& text : dataset::descriptions_for(GetParam())) {
    EXPECT_EQ(cls.classify(text).tag, GetParam()) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTags, PhraseBankRecovery,
    ::testing::Values(fault_tag::environment, fault_tag::computer_system,
                      fault_tag::recognition_system, fault_tag::planner, fault_tag::sensor,
                      fault_tag::network, fault_tag::design_bug, fault_tag::software,
                      fault_tag::av_controller_system, fault_tag::av_controller_ml,
                      fault_tag::hang_crash, fault_tag::incorrect_behavior_prediction),
    [](const ::testing::TestParamInfo<fault_tag>& info) {
      return std::string(tag_id(info.param));
    });

TEST(PhraseBankVague, AllVagueDescriptionsAreUnknown) {
  const auto cls = make_classifier();
  for (const auto& text : dataset::vague_descriptions()) {
    EXPECT_EQ(cls.classify(text).tag, fault_tag::unknown) << text;
  }
}

}  // namespace
}  // namespace avtk::nlp
