#include "ingest/processor.h"

#include <set>
#include <utility>

#include "ocr/postprocess.h"
#include "parse/accident_parser.h"
#include "parse/disengagement_parser.h"
#include "parse/report_header.h"

namespace avtk::ingest {

std::string_view error_policy_name(error_policy policy) {
  switch (policy) {
    case error_policy::fail_fast:
      return "fail_fast";
    case error_policy::skip:
      return "skip";
    case error_policy::quarantine:
      return "quarantine";
  }
  return "fail_fast";
}

std::optional<error_policy> error_policy_from_name(std::string_view name) {
  if (name == "fail_fast" || name == "fail-fast") return error_policy::fail_fast;
  if (name == "skip") return error_policy::skip;
  if (name == "quarantine") return error_policy::quarantine;
  return std::nullopt;
}

document_error::document_error(std::size_t index, std::string title, error_code code,
                               std::string message)
    : error(code, "document " + std::to_string(index) + " ('" + title + "'): " + message),
      index_(index),
      title_(std::move(title)),
      message_(std::move(message)) {}

document_processor::document_processor(processor_config config)
    : config_(std::move(config)),
      engine_(ocr::lexicon::builtin(), config_.ocr),
      degraded_engine_(ocr::lexicon::builtin(), config_.ocr_degraded) {}

const nlp::keyword_voting_classifier& document_processor::classifier() const {
  std::call_once(classifier_once_, [this] {
    classifier_ = std::make_unique<nlp::keyword_voting_classifier>(
        config_.dictionary ? *config_.dictionary : nlp::failure_dictionary::builtin());
  });
  return *classifier_;
}

ocr::document document_processor::recover(const ocr::document& delivered,
                                          const ocr::mock_ocr_engine& engine,
                                          double give_up_confidence,
                                          document_scan& result) const {
  // Build the document from each line's OCR-recovered text, preserving
  // the page/line structure the parsers rely on. Only the metadata is
  // copied; every line is built once and moved in.
  ocr::document out;
  out.title = delivered.title;
  out.manufacturer = delivered.manufacturer;
  out.report_year = delivered.report_year;
  out.quality = delivered.quality;
  out.pages.resize(delivered.pages.size());
  for (std::size_t p = 0; p < delivered.pages.size(); ++p) {
    auto& lines = out.pages[p].lines;
    lines.reserve(delivered.pages[p].lines.size());
    for (const auto& line : delivered.pages[p].lines) {
      auto rec = engine.recognize_line(line);
      result.ocr_confidence_sum += rec.confidence;
      ++result.ocr_lines;
      if (rec.needs_manual_review) ++result.ocr_manual_review_lines;
      lines.push_back(std::move(rec.text));
    }
  }
  if (give_up_confidence > 0 && result.ocr_lines > 0) {
    const double mean =
        result.ocr_confidence_sum / static_cast<double>(result.ocr_lines);
    if (mean < give_up_confidence) {
      throw ocr_error("mean recognition confidence " + std::to_string(mean) +
                      " below give-up floor " + std::to_string(give_up_confidence) + " in: " +
                      delivered.title);
    }
  }
  return out;
}

void document_processor::scan_into(document_scan& result, const ocr::document& delivered,
                                   const ocr::document* pristine, bool strict,
                                   scan_timing* timing, std::uint64_t parent_span) const {
  ocr::document recovered;
  {
    const obs::scoped_timer timer(timing != nullptr ? &timing->ocr_ns : nullptr);
    const obs::scoped_span span(config_.trace, "ocr", parent_span);
    if (!config_.run_ocr) {
      recovered = delivered;
    } else {
      try {
        recovered = recover(delivered, engine_, config_.ocr_give_up_confidence, result);
      } catch (const ocr_error&) {
        if (!config_.retry_degraded_ocr) throw;
        // The degraded rung: re-run recovery with the conservative profile
        // and half the give-up floor. The first attempt's per-line stats
        // are discarded — the retried recovery is what the parsers see.
        const obs::scoped_span retry_span(config_.trace, "ocr.retry", parent_span);
        result = document_scan{};
        result.ocr_retried = true;
        recovered = recover(delivered, degraded_engine_,
                            config_.ocr_give_up_confidence * 0.5, result);
      }
    }
  }

  const obs::scoped_timer timer(timing != nullptr ? &timing->parse_ns : nullptr);
  const obs::scoped_span span(config_.trace, "parse", parent_span);
  if (strict && delivered.line_count() == 0) {
    throw header_error("empty document: " + delivered.title);
  }
  auto id = parse::identify_report(recovered);
  if (id.kind == parse::report_kind::unknown && pristine != nullptr) {
    id = parse::identify_report(*pristine);
  }
  if (id.kind == parse::report_kind::disengagement) {
    result.is_disengagement_report = true;
    auto parsed = parse::parse_disengagement_report(recovered, pristine);
    result.parse_failed_lines = parsed.failed_lines;
    result.manual_transcriptions = parsed.manual_transcriptions;
    if (strict) {
      if (parsed.failed_lines > 0) {
        throw parse_error(std::to_string(parsed.failed_lines) +
                          " unparseable line(s) in: " + delivered.title);
      }
      // A mileage table listing the same vehicle-month twice is structural
      // damage (a duplicated page, a scanner double-feed): totals would be
      // silently inflated, so the document is refused instead.
      std::set<std::pair<std::string, std::int64_t>> seen;
      for (const auto& m : parsed.mileage) {
        if (!seen.emplace(m.vehicle_id, m.month.index()).second) {
          throw parse_error("duplicate mileage row for vehicle " + m.vehicle_id + " in " +
                            m.month.to_string() + ": " + delivered.title);
        }
      }
    }
    result.events = std::move(parsed.events);
    result.mileage = std::move(parsed.mileage);
  } else if (id.kind == parse::report_kind::accident) {
    result.is_accident_report = true;
    auto parsed = parse::parse_accident_report(recovered, pristine);
    if (parsed.used_manual_fallback) ++result.manual_transcriptions;
    result.accidents.push_back(std::move(parsed.record));
  } else if (strict) {
    throw header_error("cannot identify report kind of: " + delivered.title);
  } else {
    result.unidentified = true;
  }
}

namespace {

// On a fault the document contributes nothing but its quarantine record
// (and whether the degraded-OCR rung fired on the way down).
document_scan faulted_scan(bool ocr_retried, quarantined_document fault) {
  document_scan out;
  out.ocr_retried = ocr_retried;
  out.fault = std::move(fault);
  return out;
}

}  // namespace

document_scan document_processor::scan(const ocr::document& delivered,
                                       const ocr::document* pristine, std::size_t index,
                                       scan_timing* timing, std::uint64_t parent_span) const {
  document_scan result;
  try {
    scan_into(result, delivered, pristine, config_.strict, timing, parent_span);
  } catch (const error& e) {
    result = faulted_scan(result.ocr_retried,
                          quarantined_document{index, delivered.title, e.code(), e.what()});
  } catch (const std::exception& e) {
    result = faulted_scan(result.ocr_retried,
                          quarantined_document{index, delivered.title, error_code::internal,
                                               e.what()});
  }
  if (result.fault && config_.strict) {
    // Mark the refusal in the trace so a chaos run's scan shows where
    // containment fired (never emitted under fail_fast scans: their traces
    // stay bit-identical to the historical ones).
    const obs::scoped_span quarantine_span(config_.trace, "quarantine", parent_span);
  }
  return result;
}

void document_processor::normalize_and_label(document_scan& doc, scan_timing* timing,
                                             std::uint64_t parent_span) const {
  {
    const obs::scoped_timer timer(timing != nullptr ? &timing->normalize_ns : nullptr);
    const obs::scoped_span span(config_.trace, "normalize", parent_span);
    doc.records_normalized_away =
        parse::normalize_disengagements(doc.events, config_.normalizer).records_dropped;
    parse::normalize_accidents(doc.accidents);
  }
  if (doc.events.empty()) return;

  const obs::scoped_timer timer(timing != nullptr ? &timing->label_ns : nullptr);
  const obs::scoped_span classify_span(config_.trace, "classify", parent_span);
  const obs::scoped_span label_span(config_.trace, "classify.label", classify_span.id());
  const auto& labeler = classifier();
  for (auto& e : doc.events) {
    const auto v = labeler.label(e.description);
    e.tag = v.tag;
    e.category = v.category;
    if (v.tag == nlp::fault_tag::unknown) ++doc.unknown_tags;
  }
  nlp::keyword_voting_classifier::count_labels(doc.events.size(), doc.unknown_tags);
}

processed_document document_processor::process(const ocr::document& delivered,
                                               const ocr::document* pristine, std::size_t index,
                                               std::uint64_t parent_span) const {
  processed_document out;

  // The online path always scans strictly: a live append must not quietly
  // tolerate the damage the batch quarantine policies were built to catch.
  document_scan scanned;
  try {
    scan_into(scanned, delivered, pristine, /*strict=*/true, nullptr, parent_span);
  } catch (const error& e) {
    out.fault = quarantined_document{index, delivered.title, e.code(), e.what()};
  } catch (const std::exception& e) {
    out.fault = quarantined_document{index, delivered.title, error_code::internal, e.what()};
  }
  out.ocr_retried = scanned.ocr_retried;
  if (out.fault) {
    const obs::scoped_span quarantine_span(config_.trace, "quarantine", parent_span);
    return out;
  }

  // Mileage dedup across documents is the live database's concern, not
  // the processor's; within the document its cells are merged here.
  normalize_and_label(scanned, nullptr, parent_span);
  parse::normalize_mileage(scanned.mileage);
  out.unknown_tags = scanned.unknown_tags;
  out.records_normalized_away = scanned.records_normalized_away;

  out.disengagements = std::move(scanned.events);
  out.mileage = std::move(scanned.mileage);
  out.accidents = std::move(scanned.accidents);
  return out;
}

}  // namespace avtk::ingest
