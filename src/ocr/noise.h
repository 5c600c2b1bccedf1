// avtk/ocr/noise.h
//
// The scan-degradation model: character-level corruption patterns that
// Tesseract-era OCR actually produces — glyph confusions (l<->1, O<->0,
// rn->m), dropped and duplicated characters, and spurious / missing spaces.
// Corruption is applied deterministically from a seeded rng so every
// experiment is reproducible.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "ocr/document.h"
#include "util/rng.h"

namespace avtk::ocr {

/// Per-character corruption probabilities, plus the structural failure mode
/// the paper attributes to Tesseract: whole table rows merging into their
/// neighbours ("inability to recognize some table formats").
struct noise_profile {
  double confusion = 0.0;    ///< glyph-confusion substitution probability
  double drop = 0.0;         ///< character deletion probability
  double duplicate = 0.0;    ///< character duplication probability
  double space_insert = 0.0; ///< probability of a spurious space after a char
  double space_drop = 0.0;   ///< probability of deleting a space
  double line_merge = 0.0;   ///< per-line probability of merging with the next line

  /// Canonical profile for each scan quality.
  static noise_profile for_quality(scan_quality q);
};

/// The glyph-confusion table: for a given character, the plausible OCR
/// misreads ('l' -> {'1','I'}, '0' -> {'O'}, ...). Characters with no entry
/// are never confused.
const std::vector<char>& confusions_for(char c);

/// Corrupts one line of text according to `profile`.
std::string corrupt_line(std::string_view line, const noise_profile& profile, rng& gen);

/// Corrupts a whole document in place (all pages, all lines) using the
/// profile implied by the document's scan quality. Line merging (when the
/// profile enables it) REDUCES the line count — exactly the structural
/// damage that forces the pipeline's document-level manual fallback.
void corrupt_document(document& doc, rng& gen);

}  // namespace avtk::ocr
