// avtk/ocr/engine.h
//
// The mock OCR engine (the pipeline's stand-in for Google Tesseract).
// Recognition in this simulation is text-level: the engine receives the
// corrupted glyph stream and emits recognized lines plus a per-line
// confidence estimate derived from how much of the line it could anchor to
// known vocabulary. Lines below a confidence floor are flagged for the
// "manual transcription" fallback the paper describes for scans Tesseract
// could not handle.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ocr/document.h"
#include "ocr/postprocess.h"

namespace avtk::ocr {

/// One recognized line.
struct recognized_line {
  std::string text;
  double confidence = 1.0;       ///< 0..1
  bool needs_manual_review = false;
};

/// Engine configuration.
struct engine_config {
  double manual_review_threshold = 0.60;  ///< flag lines below this confidence
  bool apply_postprocess = true;           ///< run lexicon-based correction

  /// The conservative profile the ingestion path retries with after the
  /// standard profile gives up on a document (the paper's "manual
  /// transcription" rung): identical recovery, but nearly every line is
  /// flagged for manual review so downstream consumers treat the text as
  /// best-effort rather than trusted.
  static engine_config degraded() {
    engine_config cfg;
    cfg.manual_review_threshold = 0.95;
    return cfg;
  }
};

class mock_ocr_engine {
 public:
  /// The corrector's lexicon decides what "looks like a word" — pass the
  /// pipeline's vocabulary (lexicon::builtin(), shared by every engine).
  /// `vocab` must not be null.
  mock_ocr_engine(std::shared_ptr<const lexicon> vocab, engine_config config = {});

  /// Recognizes a single line.
  recognized_line recognize_line(const std::string& line) const;

 private:
  std::shared_ptr<const lexicon> vocab_;
  engine_config config_;
};

}  // namespace avtk::ocr
