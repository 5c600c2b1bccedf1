// avtk/dataset/generator.h
//
// The calibrated synthetic-corpus generator — the reproduction's stand-in
// for the CA DMV scanned-report archive. It emits:
//
//   * ground-truth structured events (disengagements with their true fault
//     tags, monthly mileage, accidents) whose marginals match every number
//     the paper publishes (Tables I, IV, V, VI; Figs. 10-12 shapes), and
//   * raw report documents in heterogeneous manufacturer-specific formats
//     (rendered by report_writers.h), optionally degraded by the scan noise
//     model so the OCR/parse path is exercised for real.
//
// Determinism: everything is driven by the config seed.
#pragma once

#include <cstdint>
#include <vector>

#include "dataset/database.h"
#include "dataset/records.h"
#include "ocr/document.h"

namespace avtk::dataset {

struct generator_config {
  std::uint64_t seed = 20180625;  ///< DSN 2018 :)
  bool render_documents = true;   ///< produce raw report documents
  bool corrupt_documents = true;  ///< apply the scan-noise model
  ocr::scan_quality quality = ocr::scan_quality::fair;
  double narrative_shell_probability = 0.5;  ///< "driver safely disengaged..." suffix
};

/// The generated corpus.
struct generated_corpus {
  // Ground truth (tags filled with the *true* causes).
  std::vector<disengagement_record> disengagements;
  std::vector<mileage_record> mileage;
  std::vector<accident_record> accidents;

  // Raw documents as delivered to the pipeline. `pristine_documents`
  // parallels `documents` (same order/line structure) and serves as the
  // "manual transcription" fallback, exactly as the paper fell back to
  // manual conversion when Tesseract failed.
  std::vector<ocr::document> documents;
  std::vector<ocr::document> pristine_documents;

  /// Loads the ground-truth events into a failure_database (bypassing the
  /// OCR + parse path). Kept although only tests call it: the core and CSV
  /// tests need the true records, which run_pipeline's output is not.
  failure_database to_database() const;
};

/// Generates the full 26-month, 12-manufacturer corpus.
generated_corpus generate_corpus(const generator_config& config = {});

/// Generates only one manufacturer/release slice. Kept although only tests
/// call it: the per-format parser sweeps would otherwise render and OCR the
/// whole corpus for every case.
generated_corpus generate_slice(manufacturer maker, int report_year,
                                const generator_config& config = {});

}  // namespace avtk::dataset
