// CSV-based report formats: Mercedes-Benz, Bosch, GM Cruise, Tesla, and the
// minimal Ford/BMW layout. All use quoted-CSV rows; mileage rows have three
// fields (vehicle, month, miles) and event rows are distinguished by their
// field count and leading date. Each reader scans its line into views with
// csv::scan_line; a line the CSV rules refuse (e.g. a quote character eaten
// by scan noise) does not parse.
#include "parse/formats/common.h"

#include "util/csv.h"
#include "util/dates.h"
#include "util/strings.h"

namespace avtk::parse::formats {

using dataset::disengagement_record;
using dataset::mileage_record;
using dataset::modality;

namespace {

// A 3-field CSV mileage row: vehicle, month, miles.
std::optional<mileage_record> try_mileage(const csv::line_fields& fields) {
  if (fields.size() != 3) return std::nullopt;
  const auto month = dates::parse_year_month(fields[1]);
  const auto miles = parse_miles(fields[2]);
  if (!month || !miles || str::trim(fields[0]).empty()) return std::nullopt;
  mileage_record m;
  m.vehicle_id = std::string(str::trim(fields[0]));
  m.month = *month;
  m.miles = *miles;
  return m;
}

}  // namespace

std::optional<parsed_line> read_benz_line(std::string_view line) {
  csv::line_fields fields;
  if (!csv::scan_line(line, fields)) return std::nullopt;
  if (auto m = try_mileage(fields)) return parsed_line{std::nullopt, std::move(m)};

  // Date,VIN,Initiated By,Reaction Time (s),Road Type,Weather,Description
  if (fields.size() != 7) return std::nullopt;
  const auto date = dates::parse_date(fields[0]);
  if (!date) return std::nullopt;
  disengagement_record d;
  d.event_date = *date;
  d.vehicle_id = std::string(str::trim(fields[1]));
  const auto initiated = str::trim(fields[2]);
  if (str::iequals(initiated, "Driver")) {
    d.mode = modality::manual;
  } else if (str::iequals(initiated, "ADS")) {
    d.mode = modality::automatic;
  } else if (const auto m = dataset::modality_from_string(initiated)) {
    d.mode = *m;
  }
  d.reaction_time_s = parse_reaction_field(fields[3]);
  d.road = dataset::road_type_from_string(fields[4]).value_or(dataset::road_type::unknown);
  d.conditions = dataset::weather_from_string(fields[5]).value_or(dataset::weather::unknown);
  d.description = std::string(fields[6]);
  if (d.description.empty()) return std::nullopt;
  return parsed_line{std::move(d), std::nullopt};
}

std::optional<parsed_line> read_bosch_line(std::string_view line) {
  csv::line_fields fields;
  if (!csv::scan_line(line, fields)) return std::nullopt;
  if (auto m = try_mileage(fields)) return parsed_line{std::nullopt, std::move(m)};

  // Date,Vehicle,Test Type,Cause
  if (fields.size() != 4) return std::nullopt;
  const auto date = dates::parse_date(fields[0]);
  if (!date) return std::nullopt;
  disengagement_record d;
  d.event_date = *date;
  d.vehicle_id = std::string(str::trim(fields[1]));
  d.mode = modality::planned;
  d.description = std::string(fields[3]);
  if (d.description.empty()) return std::nullopt;
  return parsed_line{std::move(d), std::nullopt};
}

std::optional<parsed_line> read_gm_cruise_line(std::string_view line) {
  // Same structure as Bosch: planned tests with ISO dates.
  return read_bosch_line(line);
}

std::optional<parsed_line> read_tesla_line(std::string_view line) {
  csv::line_fields fields;
  if (!csv::scan_line(line, fields)) return std::nullopt;
  if (auto m = try_mileage(fields)) return parsed_line{std::nullopt, std::move(m)};

  // Date,Vehicle,Mode,Reaction Time (s),Description
  if (fields.size() != 5) return std::nullopt;
  const auto date = dates::parse_date(fields[0]);
  if (!date) return std::nullopt;
  disengagement_record d;
  d.event_date = *date;
  d.vehicle_id = std::string(str::trim(fields[1]));
  d.mode = dataset::modality_from_string(fields[2]).value_or(modality::unknown);
  d.reaction_time_s = parse_reaction_field(fields[3]);
  d.description = std::string(fields[4]);
  if (d.description.empty()) return std::nullopt;
  return parsed_line{std::move(d), std::nullopt};
}

std::optional<parsed_line> read_simple_csv_line(std::string_view line) {
  csv::line_fields fields;
  if (!csv::scan_line(line, fields)) return std::nullopt;
  if (auto m = try_mileage(fields)) return parsed_line{std::nullopt, std::move(m)};

  // Date,Vehicle,Mode,Description
  if (fields.size() != 4) return std::nullopt;
  const auto date = dates::parse_date(fields[0]);
  if (!date) return std::nullopt;
  disengagement_record d;
  d.event_date = *date;
  d.vehicle_id = std::string(str::trim(fields[1]));
  d.mode = dataset::modality_from_string(fields[2]).value_or(modality::unknown);
  d.description = std::string(fields[3]);
  if (d.description.empty()) return std::nullopt;
  return parsed_line{std::move(d), std::nullopt};
}

}  // namespace avtk::parse::formats
