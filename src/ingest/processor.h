// avtk/ingest/processor.h
//
// The shared per-document ingestion path: one document in, either a typed
// record batch out or a quarantined_document carrying the error-code
// taxonomy. This is the paper's Stage II/III chain (mock-OCR recovery →
// header identification → per-manufacturer parse → normalization →
// Stage-III labeling) factored out of the monolithic batch pipeline so
// batch (core::run_pipeline) and online (serve::query_engine::
// ingest_document) ingestion share one code path — the record-at-a-time
// processor that stream systems extract from their batch jobs.
//
// Three entry points:
//
//   scan()     Stage II only (OCR + identify + parse).
//   normalize_and_label()
//              the record-local rest of one scanned document's chain: the
//              normalization of its disengagements and accidents, then the
//              Stage-III label of every disengagement through the shared
//              phrase-automaton classifier. The batch pipeline runs scan()
//              and then this in the same worker, per document, and keeps
//              only merge and the corpus-wide mileage normalization to its
//              serial tail.
//   process()  the full chain for one document: a strict scan, then
//              normalize_and_label() and the document's own mileage
//              normalization. This is the serve ingestion path; the
//              records it returns are ready to append to a live
//              failure_database.
//
// Fault model: scan()/process() never throw for document-level damage —
// the fault is captured as a quarantined_document (index, title, taxonomy
// code, message) and the caller's policy decides what to do with it. The
// `error_policy` enum (fail_fast / skip / quarantine) lives here because
// every ingestion surface — batch runs, the serve wire protocol, the CLI —
// speaks it.
//
// Degraded-OCR retry rung: when `ocr_give_up_confidence` is positive, a
// document whose mean OCR confidence falls below the floor fails with
// error_code::ocr instead of handing the parsers garbage. Before such a
// document is quarantined the processor retries the recovery once with the
// conservative/degraded profile (ocr::engine_config::degraded(), floor
// halved); only if that rung also fails is the document refused. The
// default floor of 0 preserves the historical never-give-up behavior
// byte-for-byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/records.h"
#include "nlp/classifier.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "ocr/document.h"
#include "ocr/engine.h"
#include "parse/normalizer.h"
#include "util/errors.h"

namespace avtk::ingest {

/// What an ingestion surface does when one document fails to scan.
enum class error_policy { fail_fast, skip, quarantine };

/// Stable spelling ("fail_fast", "skip", "quarantine").
std::string_view error_policy_name(error_policy policy);

/// Inverse of error_policy_name; also accepts "fail-fast". Returns nullopt
/// for unknown spellings.
std::optional<error_policy> error_policy_from_name(std::string_view name);

/// One document the ingestion path refused, with enough identity to triage
/// it. The same shape flows through the batch quarantine ledger
/// (avtk.quarantine.v1), the serve reject envelope, and the inject probes.
struct quarantined_document {
  std::size_t index = 0;   ///< position in the input (batch) / submission sequence (serve)
  std::string title;       ///< ocr::document::title (may be empty)
  error_code code = error_code::internal;
  std::string message;     ///< human-readable failure description
};

/// Thrown by batch drivers under error_policy::fail_fast: the lowest-index
/// failing document, with its identity attached. The carried error_code is
/// the underlying failure's code.
class document_error : public error {
 public:
  document_error(std::size_t index, std::string title, error_code code, std::string message);

  std::size_t index() const { return index_; }
  const std::string& title() const { return title_; }
  /// The underlying failure message (what() includes the identity prefix).
  const std::string& message() const { return message_; }

 private:
  std::size_t index_;
  std::string title_;
  std::string message_;
};

struct processor_config {
  bool run_ocr = true;  ///< run mock-OCR recovery before parsing
  /// Strict Stage II scan: empty or unidentifiable documents, unparseable
  /// residue that survived the manual fallback, and structurally invalid
  /// mileage tables are promoted to document faults instead of being
  /// silently tolerated. The batch driver sets this for the skip /
  /// quarantine policies; the serve ingestion path always scans strictly.
  bool strict = false;
  /// First-attempt OCR profile.
  ocr::engine_config ocr;
  /// When positive, a document whose mean OCR confidence is below this
  /// floor fails recovery with error_code::ocr (see the degraded retry
  /// rung in the header comment). 0 = never give up (historical behavior).
  double ocr_give_up_confidence = 0.0;
  /// Retry an OCR-failed document once with the degraded profile before
  /// giving up on it.
  bool retry_degraded_ocr = true;
  /// Conservative retry profile; its give-up floor is half the standard one.
  ocr::engine_config ocr_degraded = ocr::engine_config::degraded();
  /// Disengagement normalization rules for normalize_and_label().
  parse::normalizer_config normalizer;
  /// Stage-III dictionary, scored by the automaton classifier; nullopt
  /// means the builtin dictionary. The classifier is built on first use,
  /// so scan-only users (the inject probes) never pay for it.
  std::optional<nlp::failure_dictionary> dictionary;
  /// When non-null, scans record ocr / parse (and, on containment,
  /// quarantine) spans here; normalize_and_label() adds a normalize span
  /// and a classify span with a classify.label child.
  obs::trace* trace = nullptr;
};

/// Timing sinks shared by every batch worker; accumulation is atomic so
/// the totals are exact regardless of thread count.
struct scan_timing {
  obs::duration_accumulator ocr_ns;
  obs::duration_accumulator parse_ns;
  obs::duration_accumulator normalize_ns;  ///< record-local normalization
  obs::duration_accumulator label_ns;      ///< Stage-III labeling
};

/// Everything one document's Stage II scan produced (and, once
/// normalize_and_label() has run, its normalized, labeled records). A
/// faulted document contributes nothing but its quarantine record.
struct document_scan {
  std::vector<dataset::disengagement_record> events;
  std::vector<dataset::mileage_record> mileage;
  std::vector<dataset::accident_record> accidents;
  std::size_t ocr_lines = 0;
  double ocr_confidence_sum = 0;
  std::size_t ocr_manual_review_lines = 0;
  std::size_t parse_failed_lines = 0;
  std::size_t manual_transcriptions = 0;
  bool is_disengagement_report = false;
  bool is_accident_report = false;
  bool unidentified = false;
  bool ocr_retried = false;  ///< the degraded-OCR rung fired for this document
  std::size_t unknown_tags = 0;             ///< labeled Unknown-T
  std::size_t records_normalized_away = 0;  ///< disengagements dropped by normalization
  std::optional<quarantined_document> fault;
};

/// One document's full Stage II/III outcome: normalized, labeled records
/// ready to append to a live failure_database — or the fault that stopped
/// it (in which case every vector is empty).
struct processed_document {
  std::vector<dataset::disengagement_record> disengagements;
  std::vector<dataset::mileage_record> mileage;
  std::vector<dataset::accident_record> accidents;
  std::size_t unknown_tags = 0;             ///< labeled Unknown-T
  std::size_t records_normalized_away = 0;  ///< dropped by normalization
  bool ocr_retried = false;
  std::optional<quarantined_document> fault;

  bool accepted() const { return !fault.has_value(); }
};

/// The record-at-a-time document processor. Immutable after construction
/// (the OCR engines and the lazily-built classifier are shared read-only),
/// so one processor is safely used from any number of threads.
class document_processor {
 public:
  explicit document_processor(processor_config config = {});

  const processor_config& config() const { return config_; }

  /// Stage II for one document. Faults are captured into the returned
  /// scan, never thrown. `timing` (optional) accumulates OCR/parse time
  /// across workers; `parent_span` parents the per-document trace spans.
  document_scan scan(const ocr::document& delivered, const ocr::document* pristine,
                     std::size_t index, scan_timing* timing = nullptr,
                     std::uint64_t parent_span = 0) const;

  /// Stage II-2 and Stage III for one successfully scanned document, in
  /// place: normalize its disengagements and accidents (whitespace,
  /// reaction-time floor, empty-description drop; every rule is
  /// record-local), then label every disengagement through classifier().
  /// Sets `doc.unknown_tags` and `doc.records_normalized_away` and adds
  /// the document's labels to the nlp.* counters once. Mileage is left
  /// as scanned: merging its cells is a step across documents. `timing`
  /// (optional) accumulates normalize and label time across workers.
  void normalize_and_label(document_scan& doc, scan_timing* timing = nullptr,
                           std::uint64_t parent_span = 0) const;

  /// The full per-document chain (always-strict scan → normalize → label).
  /// This is the online ingestion path; see the header comment.
  processed_document process(const ocr::document& delivered, const ocr::document* pristine = nullptr,
                             std::size_t index = 0, std::uint64_t parent_span = 0) const;

  /// The shared Stage-III classifier (built on first use).
  const nlp::keyword_voting_classifier& classifier() const;

 private:
  /// The throwing Stage II core; scan() wraps it with fault capture. Writes
  /// into `result` so partial state (the ocr_retried flag) survives a
  /// throw from a later stage.
  void scan_into(document_scan& result, const ocr::document& delivered,
                 const ocr::document* pristine, bool strict, scan_timing* timing,
                 std::uint64_t parent_span) const;

  /// OCR recovery with the give-up floor; throws ocr_error below it.
  ocr::document recover(const ocr::document& delivered, const ocr::mock_ocr_engine& engine,
                        double give_up_confidence, document_scan& result) const;

  processor_config config_;
  ocr::mock_ocr_engine engine_;
  ocr::mock_ocr_engine degraded_engine_;
  mutable std::once_flag classifier_once_;
  mutable std::unique_ptr<nlp::keyword_voting_classifier> classifier_;
};

}  // namespace avtk::ingest
