// avtk/util/table.h
//
// ASCII table renderer used by the bench harnesses and report generator to
// print paper-style tables (Table I, IV..VIII) to stdout.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace avtk {

/// Column alignment for text_table.
enum class align { left, right };

/// A simple monospace table with a header row, column alignment, and an
/// optional title. Invariant: every added row has exactly the header's
/// column count.
class text_table {
 public:
  explicit text_table(std::vector<std::string> header);

  text_table& set_title(std::string title);
  text_table& set_alignment(std::vector<align> alignment);

  /// Appends a data row; throws avtk::logic_error on column-count mismatch.
  text_table& add_row(std::vector<std::string> row);

  std::size_t row_count() const { return rows_.size(); }

  /// Renders with box-drawing ASCII (+,-,|).
  std::string render() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<align> alignment_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats `value` with `digits` significant digits, using scientific
/// notation when |value| is tiny or huge; "-" for NaN (mirrors the paper's
/// dashes for missing data).
std::string format_number(double value, int digits = 4);

/// Formats a ratio like "20.7x".
std::string format_ratio(double value, int digits = 3);

/// Formats a percentage like "59.52%".
std::string format_percent(double fraction, int digits = 2);

}  // namespace avtk
