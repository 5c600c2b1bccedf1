// Shared fixture material for the serve test suites: a small, fully
// deterministic failure database built by hand (no generator, no pipeline)
// so tests control exactly which records exist per maker / month / tag,
// and serve_hot's request lines.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "dataset/database.h"
#include "dataset/manufacturers.h"

namespace avtk::serve::testing {

inline dataset::disengagement_record make_disengagement(
    dataset::manufacturer maker, int year, int month, nlp::fault_tag tag,
    dataset::modality mode = dataset::modality::automatic,
    std::optional<double> reaction_s = std::nullopt, const std::string& vehicle = "v1") {
  dataset::disengagement_record d;
  d.maker = maker;
  d.report_year = year < 2017 ? 2016 : 2017;
  d.event_month = year_month{year, static_cast<std::uint8_t>(month)};
  d.vehicle_id = vehicle;
  d.mode = mode;
  d.description = "test event";
  d.reaction_time_s = reaction_s;
  d.tag = tag;
  d.category = nlp::category_of(tag);
  return d;
}

inline dataset::mileage_record make_mileage(dataset::manufacturer maker, int year, int month,
                                            double miles, const std::string& vehicle = "v1") {
  dataset::mileage_record m;
  m.maker = maker;
  m.report_year = year < 2017 ? 2016 : 2017;
  m.vehicle_id = vehicle;
  m.month = year_month{year, static_cast<std::uint8_t>(month)};
  m.miles = miles;
  return m;
}

inline dataset::accident_record make_accident(dataset::manufacturer maker, int year, int month,
                                              double av_speed, double other_speed) {
  dataset::accident_record a;
  a.maker = maker;
  a.report_year = year < 2017 ? 2016 : 2017;
  a.event_date = date{year, static_cast<std::uint8_t>(month), 15};
  a.description = "test accident";
  a.av_speed_mph = av_speed;
  a.other_speed_mph = other_speed;
  return a;
}

/// Two manufacturers (Waymo, Delphi) over 2016 H1 + one 2017 month, with
/// per-vehicle mileage, tagged disengagements, reaction times and a few
/// accidents — enough signal for every query kind to return rows.
inline dataset::failure_database make_test_database() {
  using dataset::manufacturer;
  dataset::failure_database db;

  for (const auto maker : {manufacturer::waymo, manufacturer::delphi}) {
    for (int month = 1; month <= 6; ++month) {
      db.add_mileage(make_mileage(maker, 2016, month, 1000.0, "v1"));
      db.add_mileage(make_mileage(maker, 2016, month, 500.0, "v2"));
    }
    db.add_mileage(make_mileage(maker, 2017, 1, 800.0, "v1"));
  }

  // Waymo: perception-heavy mix with reaction times clustered near 1 s.
  for (int i = 0; i < 12; ++i) {
    const int month = 1 + (i % 6);
    db.add_disengagement(make_disengagement(
        manufacturer::waymo, 2016, month, nlp::fault_tag::recognition_system,
        dataset::modality::automatic, 0.6 + 0.1 * static_cast<double>(i % 5),
        i % 2 == 0 ? "v1" : "v2"));
  }
  for (int i = 0; i < 6; ++i) {
    db.add_disengagement(make_disengagement(manufacturer::waymo, 2016, 1 + (i % 6),
                                            nlp::fault_tag::software,
                                            dataset::modality::manual, 1.2));
  }
  db.add_disengagement(make_disengagement(manufacturer::waymo, 2017, 1,
                                          nlp::fault_tag::planner));

  // Delphi: planner-heavy mix, slower reactions.
  for (int i = 0; i < 8; ++i) {
    db.add_disengagement(make_disengagement(
        manufacturer::delphi, 2016, 1 + (i % 6), nlp::fault_tag::planner,
        dataset::modality::manual, 1.5 + 0.2 * static_cast<double>(i % 4)));
  }
  for (int i = 0; i < 4; ++i) {
    db.add_disengagement(make_disengagement(manufacturer::delphi, 2016, 2 + (i % 4),
                                            nlp::fault_tag::computer_system,
                                            dataset::modality::automatic, 2.0));
  }

  db.add_accident(make_accident(manufacturer::waymo, 2016, 3, 5.0, 10.0));
  db.add_accident(make_accident(manufacturer::waymo, 2016, 5, 12.0, 15.0));
  db.add_accident(make_accident(manufacturer::delphi, 2016, 4, 8.0, 20.0));
  return db;
}

/// perfbench serve_hot's 45 request lines: its five kinds (tags, metrics,
/// categories, modality, trend), bare and per analyzed maker, numbered.
inline std::vector<std::string> hot_lines() {
  std::vector<std::string> out;
  const char* const kinds[] = {"tags", "metrics", "categories", "modality", "trend"};
  for (std::size_t m = 0; m <= dataset::k_analyzed_manufacturers.size(); ++m) {
    for (const char* kind : kinds) {
      std::string line = R"({"id":)" + std::to_string(out.size()) + R"(,"query":")" + kind + '"';
      if (m > 0) {
        line += R"(,"maker":")";
        line += dataset::manufacturer_id(dataset::k_analyzed_manufacturers[m - 1]);
        line += '"';
      }
      out.push_back(line + '}');
    }
  }
  return out;
}

}  // namespace avtk::serve::testing
