#include "ocr_reference.h"

#include <algorithm>

#include "nlp/tokenizer.h"
#include "util/strings.h"

namespace avtk::ocr::testing {

std::string reference_best_match(const std::vector<std::string>& words, std::string_view word) {
  const std::string lower = str::to_lower(word);
  if (std::ranges::find(words, lower) != words.end()) return lower;
  if (lower.size() < 3) return {};
  std::string found;
  for (const auto& candidate : words) {
    // Cheap length filter before the O(nm) distance.
    const auto ls = lower.size();
    const auto cs = candidate.size();
    if (cs + 1 < ls || ls + 1 < cs) continue;
    if (str::edit_distance(lower, candidate) <= 1) {
      if (!found.empty()) return {};  // ambiguous: refuse to correct
      found = candidate;
    }
  }
  return found;
}

double reference_vocabulary_hit_rate(const std::vector<std::string>& words,
                                     std::string_view line) {
  std::size_t tokens = 0;
  std::size_t hits = 0;
  for (const auto& t : nlp::tokenize(line)) {
    if (t.is_number) continue;
    ++tokens;
    if (std::ranges::binary_search(words, t.text)) ++hits;
  }
  if (tokens == 0) return 1.0;
  return static_cast<double>(hits) / static_cast<double>(tokens);
}

double character_error_rate(std::string_view reference, std::string_view hypothesis) {
  if (reference.empty()) return hypothesis.empty() ? 0.0 : 1.0;
  return static_cast<double>(str::edit_distance(reference, hypothesis)) /
         static_cast<double>(reference.size());
}

}  // namespace avtk::ocr::testing
