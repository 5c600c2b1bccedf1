#include "ocr_reference.h"

#include <algorithm>

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

}  // namespace avtk::ocr::testing
