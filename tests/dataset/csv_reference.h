// The CSV reader behind the export round-trip tests: a header-indexed
// `csv::table` and `dataset::import_csv`, the inverse of
// `dataset::export_csv`. Test-only: the util and dataset tests link it,
// the avtk libraries and the CLI never do.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "dataset/csv_io.h"
#include "util/csv.h"

namespace avtk::csv {

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

namespace avtk::dataset {

/// Imports a database previously produced by export_csv. Unknown columns
/// are tolerated (and ignored); missing required columns throw
/// avtk::parse_error, as do malformed field values.
failure_database import_csv(const database_csv& csv);

}  // namespace avtk::dataset
