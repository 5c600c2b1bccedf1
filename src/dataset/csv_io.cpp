#include "dataset/csv_io.h"

#include <cstdio>

#include "util/csv.h"

namespace avtk::dataset {

namespace {

std::string opt_date(const std::optional<date>& d) { return d ? d->to_string() : ""; }
std::string opt_month(const std::optional<year_month>& m) { return m ? m->to_string() : ""; }

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

database_csv export_csv(const failure_database& db) {
  database_csv out;

  {
    std::vector<csv::row> rows;
    rows.push_back({"manufacturer", "report_year", "date", "month", "vehicle", "modality",
                    "road", "weather", "reaction_time_s", "tag", "category", "description"});
    for (const auto& d : db.disengagements()) {
      rows.push_back({std::string(manufacturer_id(d.maker)), std::to_string(d.report_year),
                      opt_date(d.event_date), opt_month(d.event_month), d.vehicle_id,
                      std::string(modality_name(d.mode)), std::string(road_type_name(d.road)),
                      std::string(weather_name(d.conditions)),
                      d.reaction_time_s ? fmt(*d.reaction_time_s) : "",
                      std::string(nlp::tag_id(d.tag)),
                      std::string(nlp::category_name(d.category)), d.description});
    }
    out.disengagements = csv::format(rows);
  }
  {
    std::vector<csv::row> rows;
    rows.push_back({"manufacturer", "report_year", "vehicle", "month", "miles"});
    for (const auto& m : db.mileage()) {
      rows.push_back({std::string(manufacturer_id(m.maker)), std::to_string(m.report_year),
                      m.vehicle_id, m.month.to_string(), fmt(m.miles)});
    }
    out.mileage = csv::format(rows);
  }
  {
    std::vector<csv::row> rows;
    rows.push_back({"manufacturer", "report_year", "date", "vehicle", "location",
                    "av_speed_mph", "other_speed_mph", "autonomous_mode", "rear_end",
                    "near_intersection", "injuries", "description"});
    for (const auto& a : db.accidents()) {
      rows.push_back({std::string(manufacturer_id(a.maker)), std::to_string(a.report_year),
                      opt_date(a.event_date), a.vehicle_id, a.location,
                      a.av_speed_mph ? fmt(*a.av_speed_mph) : "",
                      a.other_speed_mph ? fmt(*a.other_speed_mph) : "",
                      a.av_in_autonomous_mode ? "yes" : "no", a.rear_end ? "yes" : "no",
                      a.near_intersection ? "yes" : "no", a.injuries ? "yes" : "no",
                      a.description});
    }
    out.accidents = csv::format(rows);
  }
  return out;
}

}  // namespace avtk::dataset
