#include "csv_reference.h"

#include "util/errors.h"
#include "util/strings.h"

namespace avtk::csv {

table::table(row header, std::vector<row> rows) : header_(std::move(header)), rows_(std::move(rows)) {
  for (auto& r : rows_) {
    if (r.size() > header_.size()) {
      throw parse_error("CSV row has more fields than header");
    }
    r.resize(header_.size());
  }
}

table table::from_text(std::string_view text, char sep) {
  auto rows = parse(text, sep);
  if (rows.empty()) return table{};
  row header = std::move(rows.front());
  rows.erase(rows.begin());
  // A trailing newline produces a spurious single-empty-field row; drop it.
  if (!rows.empty() && rows.back().size() == 1 && rows.back()[0].empty()) {
    rows.pop_back();
  }
  return table(std::move(header), std::move(rows));
}

const row& table::row_at(std::size_t i) const {
  if (i >= rows_.size()) throw logic_error("CSV row index out of range");
  return rows_[i];
}

std::size_t table::column(std::string_view name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  throw not_found_error("CSV column '" + std::string(name) + "'");
}

bool table::has_column(std::string_view name) const {
  for (const auto& h : header_) {
    if (h == name) return true;
  }
  return false;
}

const std::string& table::at(std::size_t row_index, std::string_view column_name) const {
  return row_at(row_index)[column(column_name)];
}

}  // namespace avtk::csv

namespace avtk::dataset {

namespace {

std::optional<date> parse_opt_date(const std::string& s) {
  if (str::trim(s).empty()) return std::nullopt;
  const auto d = dates::parse_date(s);
  if (!d) throw parse_error("bad date in CSV: " + s);
  return d;
}

std::optional<year_month> parse_opt_month(const std::string& s) {
  if (str::trim(s).empty()) return std::nullopt;
  const auto m = dates::parse_year_month(s);
  if (!m) throw parse_error("bad month in CSV: " + s);
  return m;
}

std::optional<double> parse_opt_double(const std::string& s) {
  if (str::trim(s).empty()) return std::nullopt;
  const auto v = str::parse_double(s);
  if (!v) throw parse_error("bad number in CSV: " + s);
  return v;
}

manufacturer parse_maker(const std::string& s) {
  const auto m = manufacturer_from_string(s);
  if (!m) throw parse_error("unknown manufacturer in CSV: " + s);
  return *m;
}

}  // namespace

failure_database import_csv(const database_csv& csv_in) {
  failure_database db;

  {
    const auto t = csv::table::from_text(csv_in.disengagements);
    for (std::size_t i = 0; i < t.row_count(); ++i) {
      disengagement_record d;
      d.maker = parse_maker(t.at(i, "manufacturer"));
      d.report_year = static_cast<int>(
          str::parse_int(t.at(i, "report_year")).value_or(0));
      d.event_date = parse_opt_date(t.at(i, "date"));
      d.event_month = parse_opt_month(t.at(i, "month"));
      d.vehicle_id = t.at(i, "vehicle");
      d.mode = modality_from_string(t.at(i, "modality")).value_or(modality::unknown);
      d.road = road_type_from_string(t.at(i, "road")).value_or(road_type::unknown);
      d.conditions = weather_from_string(t.at(i, "weather")).value_or(weather::unknown);
      d.reaction_time_s = parse_opt_double(t.at(i, "reaction_time_s"));
      const auto tag = nlp::tag_from_string(t.at(i, "tag"));
      if (!tag) throw parse_error("unknown tag in CSV: " + t.at(i, "tag"));
      d.tag = *tag;
      const auto category = nlp::category_from_string(t.at(i, "category"));
      if (!category) throw parse_error("unknown category in CSV: " + t.at(i, "category"));
      d.category = *category;
      d.description = t.at(i, "description");
      db.add_disengagement(std::move(d));
    }
  }
  {
    const auto t = csv::table::from_text(csv_in.mileage);
    for (std::size_t i = 0; i < t.row_count(); ++i) {
      mileage_record m;
      m.maker = parse_maker(t.at(i, "manufacturer"));
      m.report_year = static_cast<int>(str::parse_int(t.at(i, "report_year")).value_or(0));
      m.vehicle_id = t.at(i, "vehicle");
      const auto month = parse_opt_month(t.at(i, "month"));
      if (!month) throw parse_error("mileage row missing month");
      m.month = *month;
      const auto miles = parse_opt_double(t.at(i, "miles"));
      if (!miles) throw parse_error("mileage row missing miles");
      m.miles = *miles;
      db.add_mileage(std::move(m));
    }
  }
  {
    const auto t = csv::table::from_text(csv_in.accidents);
    for (std::size_t i = 0; i < t.row_count(); ++i) {
      accident_record a;
      a.maker = parse_maker(t.at(i, "manufacturer"));
      a.report_year = static_cast<int>(str::parse_int(t.at(i, "report_year")).value_or(0));
      a.event_date = parse_opt_date(t.at(i, "date"));
      a.vehicle_id = t.at(i, "vehicle");
      a.location = t.at(i, "location");
      a.av_speed_mph = parse_opt_double(t.at(i, "av_speed_mph"));
      a.other_speed_mph = parse_opt_double(t.at(i, "other_speed_mph"));
      a.av_in_autonomous_mode = str::iequals(t.at(i, "autonomous_mode"), "yes");
      a.rear_end = str::iequals(t.at(i, "rear_end"), "yes");
      a.near_intersection = str::iequals(t.at(i, "near_intersection"), "yes");
      a.injuries = str::iequals(t.at(i, "injuries"), "yes");
      a.description = t.at(i, "description");
      db.add_accident(std::move(a));
    }
  }
  return db;
}

}  // namespace avtk::dataset
