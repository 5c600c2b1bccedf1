// avtk/dataset/csv_io.h
//
// Export of the consolidated failure database to CSV — the interchange
// format downstream users (R, pandas, spreadsheets) actually consume.
// Three tables: disengagements, mileage, accidents. The reader that proves
// the export round-trips field for field lives with the tests.
#pragma once

#include <string>

#include "dataset/database.h"

namespace avtk::dataset {

/// The three CSV documents.
struct database_csv {
  std::string disengagements;
  std::string mileage;
  std::string accidents;
};

/// Exports the database (headers included, RFC-4180 quoting).
database_csv export_csv(const failure_database& db);

}  // namespace avtk::dataset
