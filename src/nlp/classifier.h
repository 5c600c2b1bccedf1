// avtk/nlp/classifier.h
//
// The keyword-voting classifier of Section IV: a disengagement description
// is tokenized, stopword-filtered and stemmed; every dictionary phrase that
// appears contiguously in the stemmed token stream casts a weighted vote
// for its tag; the highest-scoring tag wins. Descriptions matching no
// phrase are tagged "Unknown-T" and categorized "Unknown-C".
//
// Scoring is one Aho-Corasick pass over the description's interned stem
// ids, so its cost is independent of dictionary size. The original
// per-phrase sliding-window scan, O(stems x phrases x phrase_len), is a
// test reference (tests/nlp/nlp_reference.h): every classification field
// (tag, category, score, runner_up, confidence, matched_phrases) must be
// bit-identical to it, which the differential suite and the
// refactor-equivalence goldens check.
//
// The automaton, its stem interner, and the dictionary are immutable after
// construction, so one classifier is safely shared read-only by any number
// of threads: the batch pipeline's scan workers each label the documents
// they parse through one classifier.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nlp/automaton.h"
#include "nlp/dictionary.h"
#include "nlp/interner.h"
#include "nlp/ontology.h"

namespace avtk::nlp {

/// The classifier's verdict for one description: the label and its scores.
struct verdict {
  fault_tag tag = fault_tag::unknown;
  failure_category category = failure_category::unknown;
  double score = 0.0;        ///< winning tag's total vote weight
  double runner_up = 0.0;    ///< second-best tag's weight (0 when none)
  double confidence = 0.0;   ///< (score - runner_up) / score; 0 for unknown
};

/// A verdict plus the phrases that won it, for readers that show them.
struct classification : verdict {
  std::vector<std::string> matched_phrases;  ///< stems of winning matches, joined by ' '
};

class keyword_voting_classifier {
 public:
  explicit keyword_voting_classifier(failure_dictionary dictionary);

  /// Classifies one free-text description, matched phrases included.
  classification classify(std::string_view description) const;

  /// Classifies a batch of descriptions; result i is classify(descriptions[i]).
  std::vector<classification> classify_all(std::span<const std::string_view> descriptions) const;

  /// The verdict of classify(description) without its matched-phrase
  /// strings, and without touching the nlp.* counters: a caller labeling
  /// many descriptions adds its totals once through count_labels().
  verdict label(std::string_view description) const;

  /// Adds `labeled` verdicts, `unknown` of them Unknown-T, to the
  /// process-wide nlp.classifications / nlp.unknown_tags counters.
  static void count_labels(std::size_t labeled, std::size_t unknown);

  const failure_dictionary& dictionary() const { return dictionary_; }

 private:
  /// Reusable per-worker scoring buffers.
  struct scratch {
    token_scratch tokens;
    std::vector<std::uint32_t> stem_ids;
    std::vector<std::size_t> counts;
    std::vector<double> block_totals;  ///< vote total per tag block
  };

  /// One matching pass over `description`, leaving per-phrase hit counts
  /// in s.counts and per-tag vote totals (accumulated in (tag, phrase)
  /// dictionary order, the reference scorer's float addition order) in
  /// s.block_totals.
  void score_interned(std::string_view description, scratch& s) const;

  /// The verdict for `description`, leaving its phrase hit counts in s.counts.
  verdict label_with(std::string_view description, scratch& s) const;

  classification classify_with(std::string_view description, scratch& s) const;

  failure_dictionary dictionary_;
  stem_interner interner_;      ///< frozen after automaton construction
  phrase_automaton automaton_;  ///< compiled over every dictionary phrase
  /// phrase stems joined by ' ', indexed by global phrase id — precomputed
  /// so the hot path copies instead of re-joining per match.
  std::vector<std::string> phrase_texts_;
};

}  // namespace avtk::nlp
