// avtk/parse/formats/common.h
//
// Shared helpers for the per-manufacturer format readers. Internal to
// src/parse — not part of the public API.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/records.h"

namespace avtk::parse::formats {

/// What one successfully parsed line contained.
struct parsed_line {
  std::optional<dataset::disengagement_record> event;
  std::optional<dataset::mileage_record> mileage;
};

/// A format reader: tries to parse one body line. Returns nullopt when the
/// line does not parse (caller decides whether to retry/flag), and a
/// parsed_line with neither field set when the line is a recognized
/// non-data line (section marker, column header) to be skipped.
using line_reader = std::optional<parsed_line> (*)(std::string_view line);

/// Selects the reader for a manufacturer.
line_reader reader_for(dataset::manufacturer maker);

/// True when the line is a recognizable header / section marker for any
/// format (fuzzy, OCR-tolerant).
bool is_structural_line(std::string_view line);

/// Parses "0.85 s" / "0.85" into seconds.
std::optional<double> parse_reaction_seconds(std::string_view text);

/// Parses a reaction-time field that may be a range "0.5-1.2 s"; per the
/// paper, ranges are resolved to their upper bound.
std::optional<double> parse_reaction_field(std::string_view text);

/// Parses miles with optional thousands separators.
std::optional<double> parse_miles(std::string_view text);

// Individual format readers (exposed for targeted unit tests).
std::optional<parsed_line> read_benz_line(std::string_view line);
std::optional<parsed_line> read_bosch_line(std::string_view line);
std::optional<parsed_line> read_delphi_line(std::string_view line);
std::optional<parsed_line> read_gm_cruise_line(std::string_view line);
std::optional<parsed_line> read_nissan_line(std::string_view line);
std::optional<parsed_line> read_tesla_line(std::string_view line);
std::optional<parsed_line> read_volkswagen_line(std::string_view line);
std::optional<parsed_line> read_waymo_line(std::string_view line);
std::optional<parsed_line> read_simple_csv_line(std::string_view line);

}  // namespace avtk::parse::formats
