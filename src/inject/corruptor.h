// avtk/inject/corruptor.h
//
// Deterministic fault injection for chaos-testing the pipeline's
// quarantine policies. Picks a seeded subset of a corpus and damages each
// chosen document with one of the fault shapes real scanned-report
// archives exhibit: truncated scans, garbled headers, empty files,
// scanner double-feeds (duplicated pages), OCR noise far beyond the
// recoverable range, and reports emitted in another manufacturer's
// format.
//
// Two properties make the corruptor usable as a CI gate:
//
//   1. It corrupts the delivered document AND its pristine (manual-
//      transcription) twin, so the pipeline's fallback machinery cannot
//      quietly repair the damage.
//   2. Every injected document is GUARANTEED detectably corrupt: after
//      applying the requested fault the corruptor probes the document
//      through the strict Stage II scan (core::probe_document) and, if it
//      still parses, escalates — garbling the header, then blanking the
//      document — until the probe reports a fault. The manifest records
//      both the requested and the finally-applied fault.
//
// Everything is driven by one seed; the same (corpus, config) always
// yields the same damage, byte for byte.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "ocr/document.h"
#include "util/errors.h"

namespace avtk::inject {

/// The damage shapes the corruptor can apply.
enum class fault_kind {
  truncate_pages,   ///< keep only a leading fraction of the document's lines
  garble_header,    ///< replace the manufacturer tokens with gibberish
  empty_document,   ///< remove every page
  duplicate_pages,  ///< scanner double-feed: one page appears twice
  ocr_noise,        ///< character noise far beyond the recoverable range
  format_scramble,  ///< relabel the report as another manufacturer's format
};

/// Stable wire spelling ("truncate_pages", "garble_header", ...).
std::string_view fault_kind_name(fault_kind kind);

/// Inverse of fault_kind_name; nullopt for unknown spellings.
std::optional<fault_kind> fault_kind_from_name(std::string_view name);

/// Every fault kind, in declaration order.
const std::vector<fault_kind>& all_fault_kinds();

struct injection_config {
  std::uint64_t seed = 1;
  /// Fraction of the corpus to corrupt, in [0, 1]. At least one document
  /// is corrupted whenever the fraction is positive and the corpus is
  /// non-empty.
  double fraction = 0.1;
  /// Fault shapes to cycle through over the selected documents; empty
  /// means all of them.
  std::vector<fault_kind> kinds;
};

/// One corrupted document, as recorded in the manifest.
struct injected_fault {
  std::size_t index = 0;     ///< position in the corpus
  std::string title;         ///< original document title
  fault_kind requested = fault_kind::truncate_pages;  ///< fault tried first
  fault_kind applied = fault_kind::truncate_pages;    ///< fault that finally stuck
  std::size_t escalations = 0;  ///< ladder steps taken beyond the request
  error_code code = error_code::internal;  ///< what the strict probe reported
  std::string probe_message;               ///< the probe's failure message
};

struct injection_report {
  std::uint64_t seed = 0;
  double fraction = 0;
  std::size_t documents_in = 0;
  std::vector<injected_fault> faults;  ///< in document order

  /// The manifest entry for corpus position `index`, or nullptr when that
  /// document was left clean. This is how a chaos harness pairs each
  /// pipeline verdict with the fault that was planted.
  const injected_fault* fault_for(std::size_t index) const;
};

/// Corrupts a seeded `fraction` of `documents` in place (and the matching
/// entries of `pristine`, which must be empty or parallel one-to-one) and
/// returns the manifest. Postcondition: core::probe_document reports a
/// fault for every index in the manifest. Throws logic_error on a bad
/// fraction or mismatched pristine size.
injection_report inject_faults(std::vector<ocr::document>& documents,
                               std::vector<ocr::document>& pristine,
                               const injection_config& config = {});

/// Serializes a manifest as an avtk.inject.v1 JSON report.
std::string injection_to_json(const injection_report& report);

}  // namespace avtk::inject
