// Stage III's test-only oracle: the original keyword-voting scorer, a
// per-phrase sliding-window scan over the description's stems,
// O(stems x phrases x phrase_len) per description. It shares nothing with
// the production classifier (nlp/classifier.h) but the dictionary and the
// tokenize / stopword / stem helpers, so every production classification
// must equal reference_classify over the same dictionary, bit for bit.
//
// Linked by the nlp and core tests and bench_nlp_classifier only; the
// pipeline, the CLI and perfbench never link it.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "nlp/classifier.h"

namespace avtk::nlp::testing {

/// Vote totals per tag.
using tag_scores = std::map<fault_tag, double>;

/// Counts contiguous (possibly overlapping) occurrences of `phrase` in
/// `stems`. Empty stems or an empty phrase never match.
std::size_t count_phrase_matches(const std::vector<std::string>& stems,
                                 const std::vector<std::string>& phrase);

/// Per-tag vote totals: sum over the tag's phrases of hits x weight, added
/// in dictionary order. Tags with no vote are absent.
tag_scores reference_scores(const failure_dictionary& dictionary, std::string_view description);

/// The winner of reference_scores (ties to the first tag in enum order),
/// its runner-up and confidence, and the winner's matched phrases in
/// dictionary order. A description with no vote is Unknown-T / Unknown-C.
classification reference_classify(const failure_dictionary& dictionary,
                                  std::string_view description);

}  // namespace avtk::nlp::testing
