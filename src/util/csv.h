// avtk/util/csv.h
//
// Minimal RFC-4180-style CSV reading and writing: quoted fields, embedded
// separators/newlines/quotes. The DMV corpus we generate round-trips through
// this module, so correctness here is load-bearing for the whole pipeline.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace avtk::csv {

/// One parsed row; fields are unescaped.
using row = std::vector<std::string>;

/// A parsed document: zero or more rows. Only tests call it (the CSV
/// reader the export round-trips through); kept here because it is a thin
/// wrapper over the row scanner scan_line shares.
std::vector<row> parse(std::string_view text, char sep = ',');

/// Parses a single line (no embedded newlines). Throws avtk::parse_error on
/// an unterminated quote. Only tests call it; kept here because it is a
/// thin wrapper over the row scanner scan_line shares, whose rules its
/// tests pin.
row parse_line(std::string_view line, char sep = ',');

/// The first fields of one CSV line as views, scanned without building a
/// row. `count` counts every field; only the first `field.size()` are kept.
/// A field that is one contiguous run of the line (unquoted, or quoted with
/// no escaped quote and nothing after the closing quote) is a view of the
/// line; any other is unescaped into `scratch`, which scan_line reuses.
struct line_fields {
  std::array<std::string_view, 8> field{};
  std::size_t count = 0;
  std::string scratch;

  std::size_t size() const { return count; }
  std::string_view operator[](std::size_t i) const { return field[i]; }
};

/// Scans a single line into `out` with parse_line's rules; returns false
/// where parse_line would throw. Allocates only for a field that has to be
/// unescaped into `out.scratch`.
bool scan_line(std::string_view line, line_fields& out, char sep = ',');

/// Escapes and joins one row.
std::string format_line(const row& fields, char sep = ',');

/// Serializes rows, one per line, '\n'-terminated.
std::string format(const std::vector<row>& rows, char sep = ',');

}  // namespace avtk::csv
