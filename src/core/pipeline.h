// avtk/core/pipeline.h
//
// The end-to-end pipeline of Fig. 1: Stage I (documents in), Stage II
// (OCR -> parse -> filter -> normalize), Stage III (NLP labeling), Stage IV
// (the consolidated failure database handed to the statistical analyses,
// which read it through dataset::database_view).
//
// Stage III has one implementation: the Aho-Corasick keyword-voting
// classifier (nlp/classifier.h). The naive per-phrase scan it must match
// bit for bit is a test reference (tests/nlp/nlp_reference.h), not a
// pipeline option.
//
// Fault containment: real DMV reports are messy (scanned, manufacturer-
// specific, OCR-degraded), so a per-document failure need not abort the
// run. `pipeline_config::on_error` selects the degradation policy:
//
//   fail_fast   (default) the first failing document aborts the run with a
//               document_error naming the lowest-index failing document —
//               identical for any thread count.
//   skip        failing documents are dropped and counted
//               (pipeline_stats::documents_quarantined), nothing else.
//   quarantine  failing documents are dropped, counted, and surfaced in
//               pipeline_result::quarantined (index, title, error code,
//               message) for export as an avtk.quarantine.v1 report.
//
// Under `skip` and `quarantine` the scan stage is also stricter: empty or
// unidentifiable documents, unparseable residue that survived the manual
// fallback, and structurally invalid mileage tables (duplicate
// vehicle/month rows) are treated as document faults instead of being
// silently tolerated — exactly the triage posture the paper's Stage II
// needed for the real archive. `fail_fast` keeps the historical behavior
// bit-for-bit for existing callers.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/database.h"
#include "ingest/processor.h"
#include "nlp/classifier.h"
#include "obs/trace.h"
#include "ocr/document.h"
#include "parse/filter.h"
#include "parse/normalizer.h"
#include "util/errors.h"

namespace avtk::core {

// The per-document Stage II/III chain now lives in avtk::ingest (shared
// with the serve ingestion path); the policy vocabulary and the quarantine
// record shape are re-exported here so existing batch callers keep their
// historical spelling.
using ingest::error_policy;
using ingest::error_policy_name;
using ingest::error_policy_from_name;
using ingest::quarantined_document;
using ingest::document_error;

struct pipeline_config {
  bool run_ocr = true;  ///< run mock-OCR recovery before parsing
  /// Worker threads for the per-document OCR + parse + normalize + label
  /// stage. 1 = serial, in document order. Above 1,
  /// min(parallelism, documents) workers take documents longest first
  /// (scan_order) from one shared cursor. Results are merged in document
  /// order, so the output is identical for any thread count (determinism
  /// is tested).
  unsigned parallelism = 1;
  /// Per-document failure policy (see the header comment). The policy
  /// never changes what a *successful* document contributes.
  error_policy on_error = error_policy::fail_fast;
  /// When positive, a document whose mean OCR confidence falls below this
  /// floor fails recovery with error_code::ocr instead of handing the
  /// parsers garbage; before quarantining it the scan retries once with
  /// the degraded-OCR profile at half the floor (the retry rung; see
  /// ingest::processor_config). 0 = never give up, the historical
  /// behavior byte-for-byte.
  double ocr_give_up_confidence = 0.0;
  /// Retry an OCR-failed document once with the degraded profile before
  /// giving up on it.
  bool retry_degraded_ocr = true;
  parse::normalizer_config normalizer;
  parse::filter_config filter;
  nlp::failure_dictionary dictionary = nlp::failure_dictionary::builtin();
  /// When non-null, the pipeline records hierarchical stage spans here
  /// (pipeline → classify → classify.build, the matcher construction; then
  /// scan → per-document ocr / parse / normalize / classify →
  /// classify.label; then merge / normalize / ingest / analysis;
  /// quarantined documents add a `quarantine` span under scan). Tracing
  /// never changes the pipeline's output — determinism with tracing on
  /// vs. off is tested.
  obs::trace* trace = nullptr;
};

/// Wall-clock spent in one named pipeline stage. The per-document work
/// of the scan workers (`ocr`, `parse`, `classify.label`, and the
/// record-local part of `normalize`) is summed across worker threads, so
/// with parallelism > 1 those entries can exceed the stage's wall-clock.
/// `classify` is `classify.build` plus `classify.label`.
struct stage_timing {
  std::string stage;
  double seconds = 0;
};

/// Everything the pipeline observed along the way — the operational
/// counters the paper reports in prose (OCR fallbacks, unknown tags, ...).
struct pipeline_stats {
  std::size_t documents_in = 0;
  std::size_t disengagement_reports = 0;
  std::size_t accident_reports = 0;
  std::size_t unidentified_documents = 0;
  /// Documents dropped by the `skip` / `quarantine` policies (0 under
  /// fail_fast: the run aborts instead).
  std::size_t documents_quarantined = 0;
  /// Documents the degraded-OCR retry rung fired for (whether or not the
  /// retry ultimately saved them). 0 unless `ocr_give_up_confidence` is
  /// set.
  std::size_t ocr_retries = 0;
  std::size_t ocr_lines = 0;
  std::size_t ocr_manual_review_lines = 0;
  double ocr_mean_confidence = 1.0;
  std::size_t parse_failed_lines = 0;
  std::size_t manual_transcriptions = 0;
  std::size_t records_normalized_away = 0;
  std::size_t disengagements = 0;
  std::size_t accidents = 0;
  std::size_t unknown_tags = 0;  ///< Stage III could not assign a tag
  std::vector<dataset::manufacturer> analyzed;  ///< post-filter manufacturers
  /// Where the time went, one entry per stage (always populated, even with
  /// tracing off). Not compared by the determinism tests — wall-clock is
  /// inherently run-to-run noise.
  std::vector<stage_timing> stage_timings;
  double total_seconds = 0;  ///< end-to-end run_pipeline wall-clock

  /// Seconds recorded for `stage`; 0 when the stage is absent.
  double stage_seconds(std::string_view stage) const;
};

struct pipeline_result {
  dataset::failure_database database;
  pipeline_stats stats;
  /// Documents refused under error_policy::quarantine, in document order
  /// (empty under the other policies).
  std::vector<quarantined_document> quarantined;
};

/// Runs the full pipeline over raw documents. `pristine` (when non-empty)
/// must parallel `documents` one-to-one and serves as the manual-
/// transcription fallback.
pipeline_result run_pipeline(const std::vector<ocr::document>& documents,
                             const std::vector<ocr::document>& pristine = {},
                             const pipeline_config& config = {});

/// The order in which the parallel Stage II scan hands out documents:
/// every index once, longest first by delivered line bytes, ties by
/// ascending index. Starting the large filings first keeps one worker from
/// finishing long after the others.
std::vector<std::size_t> scan_order(const std::vector<ocr::document>& documents);

/// Runs the strict Stage II scan (OCR + identify + parse, with the same
/// validations the `skip`/`quarantine` policies apply) over one document
/// and reports the fault run_pipeline would quarantine it for, or nullopt
/// when the document scans cleanly. Used by the fault-injection harness to
/// guarantee a corrupted document is detectably corrupt.
std::optional<quarantined_document> probe_document(const ocr::document& doc,
                                                   const ocr::document* pristine = nullptr,
                                                   const pipeline_config& config = {},
                                                   std::size_t index = 0);

/// Serializes a run's quarantine ledger as an avtk.quarantine.v1 JSON
/// report (schema, policy, documents_in/quarantined counts, and one entry
/// per refused document).
std::string quarantine_to_json(const pipeline_result& result, error_policy policy);

/// Stage III only: classifies every disengagement in `db` in place and
/// returns how many came back Unknown-T. run_pipeline does not call it
/// (its scan workers label each document as they parse it); it relabels a
/// database built elsewhere.
std::size_t label_disengagements(dataset::failure_database& db,
                                 const nlp::keyword_voting_classifier& classifier);

}  // namespace avtk::core
