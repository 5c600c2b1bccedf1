// avtk/nlp/automaton.h
//
// Aho-Corasick phrase automaton for Stage-III labeling: every dictionary
// phrase (as a sequence of interned stem ids) across every tag is compiled
// into one matcher, so scoring a description is a single pass over its
// stems regardless of dictionary size — replacing the naive
// O(stems x phrases x phrase_len) per-phrase scan.
//
// The automaton stores its goto + failure function as one dense
// states x alphabet transition table (the alphabet is the dictionary's
// distinct stem vocabulary, interned to dense ids), so matching is one
// table lookup per stem. Suffix outputs are precomputed per state, which
// makes the match counts identical to the naive scorer's overlapping
// sliding-window counts — the differential test's load-bearing invariant.
//
// Thread-safety: immutable after construction; share one instance
// read-only across any number of classify workers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nlp/dictionary.h"
#include "nlp/interner.h"
#include "nlp/ontology.h"

namespace avtk::nlp {

class phrase_automaton {
 public:
  /// One compiled phrase, in global phrase-id order. Global ids follow the
  /// dictionary's own iteration order (tag, then phrase index within the
  /// tag), so per-tag scoring can replay the naive scorer's float
  /// accumulation order bit for bit.
  struct phrase_info {
    fault_tag tag = fault_tag::unknown;
    std::uint32_t index_in_tag = 0;  ///< position in dictionary.phrases(tag)
    double weight = 1.0;
  };

  /// Contiguous run of global phrase ids belonging to one tag.
  struct tag_block {
    fault_tag tag = fault_tag::unknown;
    std::uint32_t first = 0;  ///< first global phrase id of the tag
    std::uint32_t count = 0;  ///< number of phrases registered for the tag
  };

  /// Compiles every phrase of every tag in `dictionary`, interning each
  /// phrase stem into `interner`. The interner is mutated here and must be
  /// treated as frozen afterwards (the classify pass only reads it).
  phrase_automaton(const failure_dictionary& dictionary, stem_interner& interner);

  /// One pass over `stems` (interned ids; stem_interner::npos entries can
  /// never match and simply reset to the root). For every phrase occurrence
  /// ending anywhere in the stream, increments counts[global_phrase_id] —
  /// overlapping occurrences all count, as in a sliding-window scan.
  /// `counts` must hold phrase_count() zeroed entries.
  void count_matches(std::span<const std::uint32_t> stems,
                     std::span<std::size_t> counts) const;

  std::size_t phrase_count() const { return phrases_.size(); }
  const std::vector<phrase_info>& phrases() const { return phrases_; }
  const std::vector<tag_block>& tag_blocks() const { return blocks_; }

  /// Trie statistics, exposed for construction-edge-case tests (shared
  /// prefixes must share states; a phrase that is a prefix of another adds
  /// no state of its own).
  std::size_t state_count() const { return state_count_; }
  std::size_t alphabet_size() const { return alphabet_; }

 private:
  std::uint32_t step(std::uint32_t state, std::uint32_t stem_id) const {
    return stem_id < alphabet_ ? next_[state * alphabet_ + stem_id] : 0;
  }

  std::uint32_t alphabet_ = 0;     ///< interner size after dictionary interning
  std::size_t state_count_ = 0;
  std::vector<std::uint32_t> next_;  ///< dense goto+failure transition table
  // Per-state suffix-closed output lists, flattened: state s matches
  // out_ids_[out_first_[s] .. out_first_[s+1]).
  std::vector<std::uint32_t> out_first_;
  std::vector<std::uint32_t> out_ids_;
  std::vector<phrase_info> phrases_;
  std::vector<tag_block> blocks_;
};

}  // namespace avtk::nlp
