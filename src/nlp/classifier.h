// avtk/nlp/classifier.h
//
// The keyword-voting classifier of Section IV: a disengagement description
// is tokenized, stopword-filtered and stemmed; every dictionary phrase that
// appears contiguously in the stemmed token stream casts a weighted vote
// for its tag; the highest-scoring tag wins. Descriptions matching no
// phrase are tagged "Unknown-T" and categorized "Unknown-C".
//
// Two scorer backends produce bit-identical classifications (tag, category,
// score, runner_up, confidence, matched_phrases — tested differentially):
//
//   naive      the original per-phrase sliding-window scan,
//              O(stems x phrases x phrase_len) per description.
//   automaton  (default) one Aho-Corasick pass over the description's
//              interned stem ids; cost is independent of dictionary size.
//
// The automaton, its stem interner, and the dictionary are immutable after
// construction, so one classifier is safely shared read-only by any number
// of classify workers (classify_all fans out on that property).
#pragma once

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nlp/automaton.h"
#include "nlp/dictionary.h"
#include "nlp/interner.h"
#include "nlp/ontology.h"

namespace avtk::nlp {

/// Which Stage-III scorer runs (see the header comment).
enum class labeling_backend { naive, automaton };

/// Stable spelling ("naive", "automaton").
std::string_view labeling_backend_name(labeling_backend backend);

/// The classifier's verdict for one description.
struct classification {
  fault_tag tag = fault_tag::unknown;
  failure_category category = failure_category::unknown;
  double score = 0.0;        ///< winning tag's total vote weight
  double runner_up = 0.0;    ///< second-best tag's weight (0 when none)
  double confidence = 0.0;   ///< (score - runner_up) / score; 0 for unknown
  std::vector<std::string> matched_phrases;  ///< stems of winning matches, joined by ' '
};

/// Scores for every tag (diagnostics / Fig. 6 style breakdowns).
using tag_scores = std::map<fault_tag, double>;

class keyword_voting_classifier {
 public:
  explicit keyword_voting_classifier(failure_dictionary dictionary,
                                     labeling_backend backend = labeling_backend::automaton);

  /// Classifies one free-text description.
  classification classify(std::string_view description) const;

  /// Raw per-tag vote totals for a description.
  tag_scores score_all(std::string_view description) const;

  /// Classifies a batch of descriptions; result i is classify(descriptions[i]).
  /// With parallelism > 1 the batch is split across that many workers, each
  /// with its own scratch buffers against the shared read-only automaton;
  /// the output is identical for any worker count.
  std::vector<classification> classify_all(std::span<const std::string_view> descriptions,
                                           unsigned parallelism = 1) const;

  labeling_backend backend() const { return backend_; }
  const failure_dictionary& dictionary() const { return dictionary_; }

 private:
  /// Reusable per-worker buffers for the automaton path.
  struct scratch {
    token_scratch tokens;
    std::vector<std::uint32_t> stem_ids;
    std::vector<std::size_t> counts;
    std::vector<double> block_totals;  ///< vote total per tag block
  };

  /// Vote totals for an already tokenized/stemmed description (naive path).
  tag_scores score_stems(const std::vector<std::string>& stems) const;

  /// Automaton path: one matching pass over `description`, leaving
  /// per-phrase hit counts in s.counts and per-tag vote totals (accumulated
  /// in the naive scorer's float addition order) in s.block_totals.
  void score_interned(std::string_view description, scratch& s) const;

  classification classify_with(std::string_view description, scratch& s) const;

  failure_dictionary dictionary_;
  labeling_backend backend_;
  stem_interner interner_;      ///< frozen after automaton construction
  phrase_automaton automaton_;  ///< compiled over every dictionary phrase
  /// phrase stems joined by ' ', indexed by global phrase id — precomputed
  /// so the hot path copies instead of re-joining per match.
  std::vector<std::string> phrase_texts_;
};

/// Counts contiguous occurrences of `phrase` in `stems`.
std::size_t count_phrase_matches(const std::vector<std::string>& stems,
                                 const std::vector<std::string>& phrase);

}  // namespace avtk::nlp
