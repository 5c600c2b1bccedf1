// Stage II's test-only oracles: the original lexicon lookup, a linear scan
// that runs the full edit distance against every word, and the original
// vocabulary hit rate over nlp::tokenize's lower-cased tokens. They share
// nothing with the production delete index and token walk
// (ocr/postprocess.h) but the lexicon's word list, so every production
// best_match must equal reference_best_match, and every
// vocabulary_hit_rate reference_vocabulary_hit_rate, over the same words.
//
// Linked by the ocr tests and bench_pipeline_perf only; the pipeline, the
// CLI and perfbench never link it.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace avtk::ocr::testing {

/// The unique word of `words` (lower-cased) within edit distance 1 of
/// `word`, or empty when none or ambiguous; a member returns itself, and a
/// non-member shorter than 3 letters never matches.
std::string reference_best_match(const std::vector<std::string>& words, std::string_view word);

/// Fraction of `line`'s non-number tokens (nlp::tokenize) found in
/// `words` (lower-cased, sorted, unique); 1 when there are none.
double reference_vocabulary_hit_rate(const std::vector<std::string>& words,
                                     std::string_view line);

/// Character error rate between a reference and a corrupted/recovered
/// string: edit_distance / reference length (0 for two empty strings). The
/// yardstick the recovery tests measure the engine with.
double character_error_rate(std::string_view reference, std::string_view hypothesis);

}  // namespace avtk::ocr::testing
