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

/// A parsed document: zero or more rows. The first row is *not* treated
/// specially; callers that want a header use `table` below.
std::vector<row> parse(std::string_view text, char sep = ',');

/// Parses a single line (no embedded newlines). Throws avtk::parse_error on
/// an unterminated quote.
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

/// A header-indexed CSV table.
class table {
 public:
  /// Builds from raw text; the first row becomes the header. Rows shorter
  /// than the header are padded with empty fields; longer rows throw.
  static table from_text(std::string_view text, char sep = ',');

  table() = default;
  table(row header, std::vector<row> rows);

  const row& header() const { return header_; }
  std::size_t row_count() const { return rows_.size(); }
  const row& row_at(std::size_t i) const;

  /// Column index for `name`; throws avtk::not_found_error when missing.
  std::size_t column(std::string_view name) const;

  /// True when the header contains `name`.
  bool has_column(std::string_view name) const;

  /// Field at (row, named column).
  const std::string& at(std::size_t row_index, std::string_view column_name) const;

 private:
  row header_;
  std::vector<row> rows_;
};

}  // namespace avtk::csv
