// The Aho-Corasick classifier's load-bearing contract: for ANY input, its
// classification is bit-identical to the naive per-phrase reference scan's
// (nlp_reference.h) — same tag, category, matched phrases, and the exact
// same doubles for score / runner_up / confidence (the automaton replays
// the reference's float addition order). The differential corpus mixes generator output, RFC 4180
// adversarial strings, and OCR-degraded text.
#include "nlp/automaton.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "dataset/phrase_bank.h"
#include "nlp/classifier.h"
#include "nlp/interner.h"
#include "nlp/stemmer.h"
#include "nlp/stopwords.h"
#include "nlp/tokenizer.h"
#include "nlp_reference.h"
#include "ocr/noise.h"
#include "util/rng.h"

namespace avtk::nlp {
namespace {

// Bit-identical comparison: EXPECT_EQ on doubles is exact equality, which
// for the non-NaN values both scorers produce means identical bits.
void expect_identical(const classification& a, const classification& b, std::string_view text) {
  EXPECT_EQ(a.tag, b.tag) << text;
  EXPECT_EQ(a.category, b.category) << text;
  EXPECT_EQ(a.score, b.score) << text;
  EXPECT_EQ(a.runner_up, b.runner_up) << text;
  EXPECT_EQ(a.confidence, b.confidence) << text;
  EXPECT_EQ(a.matched_phrases, b.matched_phrases) << text;
}

void expect_backends_agree(const std::vector<std::string>& corpus) {
  const auto dict = failure_dictionary::builtin();
  const keyword_voting_classifier fast(dict);
  for (const auto& text : corpus) {
    expect_identical(testing::reference_classify(dict, text), fast.classify(text), text);
  }
}

TEST(AutomatonDifferential, GeneratedCorpusDescriptions) {
  rng gen(20180625);
  std::vector<std::string> corpus;
  for (const auto tag :
       {fault_tag::software, fault_tag::computer_system, fault_tag::recognition_system,
        fault_tag::planner, fault_tag::sensor, fault_tag::network, fault_tag::design_bug,
        fault_tag::av_controller_system, fault_tag::av_controller_ml, fault_tag::environment,
        fault_tag::hang_crash, fault_tag::incorrect_behavior_prediction}) {
    for (int i = 0; i < 25; ++i) corpus.push_back(dataset::sample_description(tag, gen));
  }
  for (int i = 0; i < 40; ++i) corpus.push_back(dataset::sample_vague_description(gen));
  expect_backends_agree(corpus);
}

TEST(AutomatonDifferential, Rfc4180AdversarialDescriptions) {
  // The CSV round-trip suite's corner cases: quotes, embedded commas and
  // newlines, empty strings — Stage III sees these verbatim.
  expect_backends_agree({
      "plain cause",
      "comma, then more",
      "a \"quoted\" word",
      "quote before comma\", then text",
      "mid\"quote",
      "ends with quote\"",
      "\"starts with quote",
      "multi\nline\ndescription",
      "crlf\r\ninside",
      "trailing comma,",
      ",",
      "\"",
      "\"\"",
      "",
      "software module froze, \"watchdog\" error\r\nplanner hang",
      // A phrase repeated within one description votes once per hit.
      "watchdog error, then watchdog error again; software module froze",
  });
}

TEST(AutomatonDifferential, OcrNoisedDescriptions) {
  rng gen(424242);
  const auto profile = ocr::noise_profile::for_quality(ocr::scan_quality::poor);
  std::vector<std::string> corpus;
  for (const auto tag : {fault_tag::software, fault_tag::hang_crash,
                         fault_tag::recognition_system, fault_tag::environment}) {
    for (int i = 0; i < 30; ++i) {
      corpus.push_back(ocr::corrupt_line(dataset::sample_description(tag, gen), profile, gen));
    }
  }
  expect_backends_agree(corpus);
}

TEST(AutomatonDifferential, BatchMatchesSingle) {
  rng gen(7);
  std::vector<std::string> corpus;
  for (int i = 0; i < 64; ++i) {
    corpus.push_back(dataset::sample_description(fault_tag::software, gen));
  }
  for (int i = 0; i < 8; ++i) corpus.push_back(dataset::sample_vague_description(gen));
  std::vector<std::string_view> views(corpus.begin(), corpus.end());
  const keyword_voting_classifier cls(failure_dictionary::builtin());
  const auto batch = cls.classify_all(views);
  ASSERT_EQ(batch.size(), views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    expect_identical(batch[i], cls.classify(views[i]), views[i]);
  }
}

TEST(AutomatonDifferential, EmptyInputsBothBackends) {
  const auto dict = failure_dictionary::builtin();
  const keyword_voting_classifier cls(dict);
  for (const auto& c : {testing::reference_classify(dict, ""), cls.classify("")}) {
    EXPECT_EQ(c.tag, fault_tag::unknown);
    EXPECT_EQ(c.score, 0.0);
    EXPECT_TRUE(c.matched_phrases.empty());
  }
  EXPECT_TRUE(testing::reference_scores(dict, "").empty());
  EXPECT_TRUE(cls.classify_all({}).empty());
  EXPECT_EQ(cls.label("").tag, fault_tag::unknown);
  EXPECT_EQ(cls.label("").score, 0.0);
}

TEST(Interner, RoundTripAndDenseIds) {
  stem_interner interner;
  EXPECT_EQ(interner.size(), 0u);
  EXPECT_EQ(interner.find("softwar"), stem_interner::npos);
  const auto a = interner.intern("softwar");
  const auto b = interner.intern("modul");
  const auto a2 = interner.intern("softwar");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(a2, a);
  EXPECT_EQ(interner.size(), 2u);
  EXPECT_EQ(interner.find("softwar"), a);
  EXPECT_EQ(interner.find("absent"), stem_interner::npos);
  EXPECT_EQ(interner.spelling(a), "softwar");
  EXPECT_EQ(interner.spelling(b), "modul");
}

TEST(Interner, FusedPassMatchesThreeStagePipeline) {
  // interned_stem_ids must produce ids for exactly the stem sequence the
  // reference's three-stage pass yields, npos marking out-of-vocabulary stems.
  stem_interner interner;
  phrase_automaton automaton(failure_dictionary::builtin(), interner);
  token_scratch scratch;
  std::vector<std::uint32_t> ids;
  for (const std::string_view text :
       {"Software module froze. As a result driver safely disengaged and resumed manual "
        "control.",
        "The AV didn't see the lead vehicle ahead", "Takeover-Request - watchdog error",
        "zzz unknownword software zzz", ""}) {
    interned_stem_ids(text, interner, ids, scratch);
    const auto stems = stem_all(remove_stopwords(tokenize_words(text)));
    ASSERT_EQ(ids.size(), stems.size()) << text;
    for (std::size_t i = 0; i < stems.size(); ++i) {
      EXPECT_EQ(ids[i], interner.find(stems[i])) << text << " stem " << stems[i];
      if (ids[i] != stem_interner::npos) {
        EXPECT_EQ(interner.spelling(ids[i]), stems[i]) << text;
      }
    }
  }
}

TEST(Interner, MemoDoesNotChangeRepeatedTokenResolution) {
  // The scratch memo caches per-token results; a second pass over the same
  // vocabulary (all memo hits) must emit the identical id sequence.
  stem_interner interner;
  phrase_automaton automaton(failure_dictionary::builtin(), interner);
  token_scratch scratch;
  const std::string text = "software module froze and the planner froze too, software error";
  std::vector<std::uint32_t> first, second;
  interned_stem_ids(text, interner, first, scratch);
  interned_stem_ids(text, interner, second, scratch);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Interner, MemoIsInvalidatedAcrossInterners) {
  // classify() shares one thread_local scratch across classifier
  // instances. Ids are interner-specific, so a memo built against one
  // interner must not leak into a classifier with a different dictionary
  // (regression: bootstrap-learned dictionaries misclassified after the
  // builtin classifier warmed the memo on the same thread).
  failure_dictionary small;
  small.add_phrase(fault_tag::environment, "pedestrian");
  small.add_phrase(fault_tag::software, "softwar froze");
  const keyword_voting_classifier builtin_cls(failure_dictionary::builtin());
  const keyword_voting_classifier small_cls(std::move(small));
  // Warm the shared scratch against the builtin interner, then classify
  // the same words against the small dictionary's disjoint id space.
  EXPECT_EQ(builtin_cls.classify("software module froze near a pedestrian").tag,
            fault_tag::software);
  EXPECT_EQ(small_cls.classify("pedestrian crossing").tag, fault_tag::environment);
  EXPECT_EQ(small_cls.classify("software froze").tag, fault_tag::software);
  EXPECT_EQ(builtin_cls.classify("software module froze").tag, fault_tag::software);
}

TEST(Interner, DeterministicAcrossBuilds) {
  // Two automata over the same dictionary intern identical alphabets:
  // same ids for the same stems, regardless of what was classified since.
  stem_interner a_int, b_int;
  phrase_automaton a(failure_dictionary::builtin(), a_int);
  phrase_automaton b(failure_dictionary::builtin(), b_int);
  ASSERT_EQ(a_int.size(), b_int.size());
  for (std::uint32_t id = 0; id < a_int.size(); ++id) {
    EXPECT_EQ(a_int.spelling(id), b_int.spelling(id)) << id;
  }
  EXPECT_EQ(a.state_count(), b.state_count());
  EXPECT_EQ(a.alphabet_size(), b.alphabet_size());
  EXPECT_EQ(a.phrase_count(), b.phrase_count());
}

// --- Automaton construction edge cases, via a purpose-built dictionary ---

std::vector<std::size_t> automaton_counts(const failure_dictionary& dict,
                                          std::string_view text) {
  stem_interner interner;
  phrase_automaton automaton(dict, interner);
  token_scratch scratch;
  std::vector<std::uint32_t> ids;
  interned_stem_ids(text, interner, ids, scratch);
  std::vector<std::size_t> counts(automaton.phrase_count(), 0);
  automaton.count_matches(ids, counts);
  return counts;
}

std::vector<std::size_t> naive_counts(const failure_dictionary& dict, std::string_view text) {
  const auto stems = stem_all(remove_stopwords(tokenize_words(text)));
  std::vector<std::size_t> counts;
  for (const auto tag : dict.tags()) {
    for (const auto& phrase : dict.phrases(tag)) {
      counts.push_back(testing::count_phrase_matches(stems, phrase.stems));
    }
  }
  return counts;
}

TEST(AutomatonEdgeCases, SharedPrefixesAndPhrasePrefixOfPhrase) {
  failure_dictionary dict;
  // "sensor" is a phrase AND a proper prefix of two longer phrases that
  // share their first two states; matching "sensor fault" must credit both
  // the single-stem phrase and the two-stem phrase.
  dict.add_phrase(fault_tag::sensor, "sensor");
  dict.add_phrase(fault_tag::sensor, "sensor fault");
  dict.add_phrase(fault_tag::sensor, "sensor failure detected");
  dict.add_phrase(fault_tag::software, "fault");
  for (const std::string_view text :
       {"sensor fault", "sensor failure detected", "sensor sensor fault",
        "a sensor and a fault but apart", "sensor failure detected sensor fault", "fault",
        "sensor"}) {
    EXPECT_EQ(automaton_counts(dict, text), naive_counts(dict, text)) << text;
  }
}

TEST(AutomatonEdgeCases, OverlappingAndRepeatedMatches) {
  failure_dictionary dict;
  dict.add_phrase(fault_tag::software, "softwar froze");  // already stemmed spellings
  dict.add_phrase(fault_tag::software, "froze");
  dict.add_phrase(fault_tag::hang_crash, "froze froze");
  // "froze froze froze" contains "froze" x3 and the overlapping pair x2.
  const std::string text = "froze froze froze";
  EXPECT_EQ(automaton_counts(dict, text), naive_counts(dict, text));
  const auto counts = automaton_counts(dict, text);
  // Dictionary (enum) order: software's "softwar froze" and "froze", then
  // hang_crash's "froze froze". Overlapping pairs both count.
  EXPECT_EQ(counts, (std::vector<std::size_t>{0, 3, 2}));
}

TEST(AutomatonEdgeCases, SingleStemPhrasesAndUnknownStems) {
  failure_dictionary dict;
  dict.add_phrase(fault_tag::environment, "pedestrian");
  dict.add_phrase(fault_tag::environment, "cyclist");
  for (const std::string_view text :
       {"pedestrian", "a pedestrian near a cyclist", "pedestrian unknownstem cyclist",
        "nothing matches here", ""}) {
    EXPECT_EQ(automaton_counts(dict, text), naive_counts(dict, text)) << text;
  }
}

TEST(AutomatonEdgeCases, UnknownStemBreaksAdjacency) {
  failure_dictionary dict;
  dict.add_phrase(fault_tag::software, "softwar froze");
  // An out-of-vocabulary stem between the two phrase stems must prevent
  // the match (npos steps the automaton back to its root).
  EXPECT_EQ(automaton_counts(dict, "software qqqzzz froze"),
            (std::vector<std::size_t>{0}));
  EXPECT_EQ(automaton_counts(dict, "software froze"), (std::vector<std::size_t>{1}));
}

TEST(AutomatonEdgeCases, EmptyStemSequence) {
  failure_dictionary dict;
  dict.add_phrase(fault_tag::software, "softwar");
  stem_interner interner;
  phrase_automaton automaton(dict, interner);
  std::vector<std::size_t> counts(automaton.phrase_count(), 0);
  automaton.count_matches({}, counts);
  EXPECT_EQ(counts, (std::vector<std::size_t>{0}));
}

}  // namespace
}  // namespace avtk::nlp
