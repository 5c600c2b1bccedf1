#include "parse/disengagement_parser.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "parse/formats/common.h"
#include "parse/report_header.h"
#include "util/errors.h"
#include "util/strings.h"

namespace avtk::parse {

namespace {

// Flattens a document into one vector of lines (page order preserved).
std::vector<const std::string*> flatten(const ocr::document& doc) {
  std::vector<const std::string*> lines;
  for (const auto& p : doc.pages) {
    for (const auto& l : p.lines) lines.push_back(&l);
  }
  return lines;
}

// Blank and structural lines carry no records.
bool is_skipped(std::string_view line) {
  return str::trim(line).empty() || formats::is_structural_line(line);
}

// The fleet roster of a mileage table: its distinct vehicle ids, sorted.
// The views point into `rows`.
std::vector<std::string_view> roster_of(const std::vector<dataset::mileage_record>& rows) {
  std::vector<std::string_view> ids;
  ids.reserve(rows.size());
  for (const auto& m : rows) ids.push_back(m.vehicle_id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace

disengagement_parse_result parse_disengagement_report(const ocr::document& doc,
                                                      const ocr::document* manual_fallback) {
  auto id = identify_report(doc);
  if ((id.kind != report_kind::disengagement || !id.maker || !id.report_year) &&
      manual_fallback != nullptr) {
    // Header too damaged to identify: consult the manual transcription.
    id = identify_report(*manual_fallback);
  }
  if (id.kind != report_kind::disengagement) {
    throw header_error("document is not a disengagement report: " + doc.title);
  }
  if (!id.maker) throw header_error("cannot identify manufacturer of: " + doc.title);
  if (!id.report_year) throw header_error("cannot identify DMV release of: " + doc.title);

  disengagement_parse_result result;
  result.maker = *id.maker;
  result.report_year = *id.report_year;

  const auto reader = formats::reader_for(result.maker);
  const auto lines = flatten(doc);
  std::vector<const std::string*> fallback_lines;
  if (manual_fallback != nullptr) fallback_lines = flatten(*manual_fallback);
  const bool fallback_usable = fallback_lines.size() == lines.size();

  if (manual_fallback != nullptr && !fallback_usable) {
    // Structural scan damage (merged table rows): the line-for-line
    // fallback cannot align, so the whole document goes to manual
    // transcription — the paper's handling for tables Tesseract could not
    // segment.
    auto manual = parse_disengagement_report(*manual_fallback, nullptr);
    manual.manual_transcriptions = manual.events.size() + manual.mileage.size();
    return manual;
  }

  const auto finish = [&](dataset::disengagement_record d) {
    d.maker = result.maker;
    d.report_year = result.report_year;
    result.events.push_back(std::move(d));
  };
  const auto finish_mileage = [&](dataset::mileage_record m) {
    m.maker = result.maker;
    m.report_year = result.report_year;
    result.mileage.push_back(std::move(m));
  };

  // The audit below re-derives the mileage table from the pristine lines.
  // Where this pass already read a pristine line, it records the reading
  // here: k_no_row when the line yields no audited row (blank, structural,
  // unparseable, an event), else the row's index in result.mileage. The
  // audit reads only the lines still k_unread, so each pristine line is
  // read at most once.
  constexpr std::size_t k_unread = std::numeric_limits<std::size_t>::max();
  constexpr std::size_t k_no_row = k_unread - 1;
  std::vector<std::size_t> pristine_reading(fallback_usable ? lines.size() : 0, k_unread);

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto& line = *lines[i];
    // A recovered line byte-equal to its pristine line reads the same, so
    // its reading is the pristine one and the fallback has nothing to add.
    const bool pristine_equal = fallback_usable && line == *fallback_lines[i];
    if (is_skipped(line)) {
      ++result.skipped_lines;
      if (pristine_equal) pristine_reading[i] = k_no_row;
      continue;
    }
    auto parsed = reader(line);
    bool read_pristine = pristine_equal;
    if (!parsed && fallback_usable && !pristine_equal) {
      // Manual transcription: re-read the pristine line, as the paper did
      // for documents Tesseract mangled.
      parsed = reader(*fallback_lines[i]);
      read_pristine = true;
      if (parsed) ++result.manual_transcriptions;
    }
    if (read_pristine) pristine_reading[i] = k_no_row;
    if (!parsed) {
      // The pristine line might be structural (the delivered copy was too
      // damaged for is_structural_line to tell).
      if (fallback_usable && !pristine_equal &&
          formats::is_structural_line(*fallback_lines[i])) {
        ++result.skipped_lines;
      } else {
        ++result.failed_lines;
      }
      continue;
    }
    if (parsed->event) finish(std::move(*parsed->event));
    if (parsed->mileage) {
      // The audit skips blank and structural pristine lines, however they
      // read; a recovered line equal to its pristine one is neither.
      if (read_pristine && (pristine_equal || !is_skipped(*fallback_lines[i]))) {
        pristine_reading[i] = result.mileage.size();
      }
      finish_mileage(std::move(*parsed->mileage));
    }
  }

  if (fallback_usable) {
    // Mileage audit: scan noise can silently corrupt digits (a duplicated
    // "1" turns 1032 miles into 11032). Re-derive the mileage table from
    // the manual transcription and compare totals; on mismatch, trust the
    // transcription (the paper's authors manually verified totals too).
    std::vector<dataset::mileage_record> pristine_mileage;
    for (std::size_t i = 0; i < fallback_lines.size(); ++i) {
      const std::size_t reading = pristine_reading[i];
      if (reading == k_no_row) continue;
      if (reading != k_unread) {
        pristine_mileage.push_back(result.mileage[reading]);
        continue;
      }
      if (is_skipped(*fallback_lines[i])) continue;
      auto parsed = reader(*fallback_lines[i]);
      if (parsed && parsed->mileage) {
        auto m = std::move(*parsed->mileage);
        m.maker = result.maker;
        m.report_year = result.report_year;
        pristine_mileage.push_back(std::move(m));
      }
    }
    double noisy_total = 0;
    for (const auto& m : result.mileage) noisy_total += m.miles;
    double pristine_total = 0;
    for (const auto& m : pristine_mileage) pristine_total += m.miles;
    const bool row_mismatch = pristine_mileage.size() != result.mileage.size();
    const bool total_mismatch =
        pristine_total > 0 &&
        std::fabs(noisy_total - pristine_total) > 0.001 * pristine_total;
    // The fleet roster must agree too: a corrupted vehicle id would
    // otherwise inflate Table I's car count.
    const bool roster_mismatch =
        !row_mismatch && roster_of(result.mileage) != roster_of(pristine_mileage);
    if (row_mismatch || total_mismatch || roster_mismatch) {
      result.manual_transcriptions += pristine_mileage.size();
      result.mileage = std::move(pristine_mileage);
    }

    // Vehicle-id repair: snap event vehicle ids damaged by scan noise onto
    // the mileage table's fleet roster (unique match within distance 2).
    const auto roster = roster_of(result.mileage);
    for (auto& e : result.events) {
      if (e.vehicle_id.empty() ||
          std::binary_search(roster.begin(), roster.end(), std::string_view(e.vehicle_id))) {
        continue;
      }
      std::string_view best;
      bool ambiguous = false;
      for (const auto& candidate : roster) {
        if (str::within_edit_distance(e.vehicle_id, candidate, 2)) {
          if (!best.empty()) ambiguous = true;
          best = candidate;
        }
      }
      if (!best.empty() && !ambiguous) e.vehicle_id = best;
    }
  }
  return result;
}

}  // namespace avtk::parse
