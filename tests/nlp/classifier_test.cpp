#include "nlp/classifier.h"

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "dataset/generator.h"
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

// The lean verdict the pipeline and serve ingest label with is classify()
// minus the matched phrases: same tag, category and bit-identical scores,
// and both equal the reference scan's. The inputs are every description of
// the canonical corpus, as generated and as the pipeline recovers it from
// the OCR-noised documents, plus each generated description joined to the
// next one: no single description draws votes for two tags, a joined pair
// of different causes does, so the runner-up and confidence are exercised.
TEST(ClassifierLabel, VerdictMatchesClassifyAndReferenceOnSeedCorpus) {
  const auto corpus = dataset::generate_corpus({});
  ASSERT_EQ(dataset::generator_config{}.seed, 20180625u);
  std::vector<std::string> texts;
  for (const auto& d : corpus.disengagements) texts.push_back(d.description);
  const auto recovered = core::run_pipeline(corpus.documents, corpus.pristine_documents);
  for (const auto& d : recovered.database.disengagements()) texts.push_back(d.description);
  for (std::size_t i = 0; i + 1 < corpus.disengagements.size(); ++i) {
    texts.push_back(corpus.disengagements[i].description + " " +
                    corpus.disengagements[i + 1].description);
  }

  const auto dict = failure_dictionary::builtin();
  const keyword_voting_classifier cls(dict);
  std::size_t with_runner_up = 0;
  for (const auto& text : texts) {
    const verdict lean = cls.label(text);
    const auto full = cls.classify(text);
    const auto ref = testing::reference_classify(dict, text);
    for (const classification* other : {&full, &ref}) {
      ASSERT_EQ(lean.tag, other->tag) << text;
      ASSERT_EQ(lean.category, other->category) << text;
      ASSERT_EQ(lean.score, other->score) << text;
      ASSERT_EQ(lean.runner_up, other->runner_up) << text;
      ASSERT_EQ(lean.confidence, other->confidence) << text;
    }
    if (lean.runner_up > 0) ++with_runner_up;
  }
  EXPECT_GT(with_runner_up, 1000u);
}

TEST(PhraseBankVague, AllVagueDescriptionsAreUnknown) {
  const auto cls = make_classifier();
  for (const auto& text : dataset::vague_descriptions()) {
    EXPECT_EQ(cls.classify(text).tag, fault_tag::unknown) << text;
  }
}

}  // namespace
}  // namespace avtk::nlp
