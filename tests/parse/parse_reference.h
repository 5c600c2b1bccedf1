// Stage II's test-only parsing oracles: the original allocating line
// kernels, kept verbatim in behaviour. Each splits into owned
// std::string fields (its own copies of the original str::split,
// split_whitespace and CSV row scanner), lower-cases into owned strings and
// tokenizes with nlp::tokenize; they share with the production kernels
// (parse/formats/common.h, util/dates.h) only the unchanged field helpers
// (str::parse_int, str::within_edit_distance, dates::month_from_name,
// formats::parse_miles / parse_reaction_field and the enum parsers). The
// report parser re-reads every pristine line in its mileage audit.
//
// Every production kernel must answer exactly as its reference here. Linked
// by the parse tests only; the pipeline, the CLI and perfbench never link
// it.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "dataset/manufacturers.h"
#include "ocr/document.h"
#include "parse/disengagement_parser.h"
#include "parse/formats/common.h"
#include "util/dates.h"

namespace avtk::parse::testing {

/// Replaces every occurrence of `from` with `to`, left to right, without
/// overlap; an empty `from` leaves `s` unchanged.
std::string replace_all(std::string_view s, std::string_view from, std::string_view to);

bool reference_is_structural_line(std::string_view line);

std::optional<date> reference_parse_date(std::string_view s);
std::optional<year_month> reference_parse_year_month(std::string_view s);

std::optional<formats::parsed_line> reference_read_benz_line(std::string_view line);
std::optional<formats::parsed_line> reference_read_bosch_line(std::string_view line);
std::optional<formats::parsed_line> reference_read_delphi_line(std::string_view line);
std::optional<formats::parsed_line> reference_read_gm_cruise_line(std::string_view line);
std::optional<formats::parsed_line> reference_read_nissan_line(std::string_view line);
std::optional<formats::parsed_line> reference_read_tesla_line(std::string_view line);
std::optional<formats::parsed_line> reference_read_volkswagen_line(std::string_view line);
std::optional<formats::parsed_line> reference_read_waymo_line(std::string_view line);
std::optional<formats::parsed_line> reference_read_simple_csv_line(std::string_view line);

/// The reference reader for a manufacturer (formats::reader_for's choice).
formats::line_reader reference_reader_for(dataset::manufacturer maker);

/// parse_disengagement_report over the reference kernels, with the
/// original mileage audit that parses every pristine line again.
disengagement_parse_result reference_parse_disengagement_report(
    const ocr::document& doc, const ocr::document* manual_fallback = nullptr);

}  // namespace avtk::parse::testing
