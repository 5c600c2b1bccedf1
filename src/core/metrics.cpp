#include "core/metrics.h"

#include "dataset/ground_truth.h"
#include "stats/descriptive.h"

namespace avtk::core {

namespace gt = dataset::ground_truth;

std::vector<double> per_car_dpm(const dataset::database_view& db,
                                dataset::manufacturer maker, std::optional<int> year) {
  const auto cells = db.vehicle_months(maker);
  std::vector<double> out;
  // Cells are sorted by (vehicle, month), so each car is one run.
  for (auto it = cells.begin(); it != cells.end();) {
    const auto& vehicle = it->vehicle_id;
    double miles = 0;
    long long events = 0;
    for (; it != cells.end() && it->vehicle_id == vehicle; ++it) {
      if (year && it->month.year != *year) continue;
      miles += it->miles;
      events += it->disengagements;
    }
    if (miles > 0) out.push_back(static_cast<double>(events) / miles);
  }
  return out;
}

manufacturer_metrics compute_metrics(const dataset::database_view& db,
                                     dataset::manufacturer maker) {
  manufacturer_metrics m;
  m.maker = maker;
  m.total_miles = db.total_miles(maker);
  m.total_disengagements = db.total_disengagements(maker);
  m.total_accidents = db.total_accidents(maker);
  m.overall_dpm = m.total_miles > 0
                      ? static_cast<double>(m.total_disengagements) / m.total_miles
                      : 0.0;

  const auto dpms = per_car_dpm(db, maker);
  if (!dpms.empty()) m.median_dpm = stats::median(dpms);

  if (m.total_accidents > 0 && m.total_disengagements > 0) {
    m.dpa = static_cast<double>(m.total_disengagements) / static_cast<double>(m.total_accidents);
    if (m.median_dpm) {
      m.apm = *m.median_dpm / *m.dpa;
      m.apmi = *m.apm * gt::k_median_trip_miles;
      m.vs_human = *m.apm / gt::k_human_apm;
      m.vs_airline = *m.apmi / gt::k_airline_apm;
      m.vs_surgical_robot = *m.apmi / gt::k_surgical_robot_apm;
    }
  }
  return m;
}

std::vector<manufacturer_metrics> compute_all_metrics(const dataset::database_view& db) {
  std::vector<manufacturer_metrics> out;
  for (const auto maker : db.manufacturers_present()) {
    out.push_back(compute_metrics(db, maker));
  }
  return out;
}

corpus_aggregates compute_aggregates(const dataset::database_view& db) {
  corpus_aggregates a;
  a.total_miles = db.total_miles();
  a.total_disengagements = db.total_disengagements();
  a.total_accidents = db.total_accidents();
  a.miles_per_disengagement =
      a.total_disengagements > 0 ? a.total_miles / static_cast<double>(a.total_disengagements)
                                 : 0.0;
  a.disengagements_per_accident =
      a.total_accidents > 0
          ? static_cast<double>(a.total_disengagements) / static_cast<double>(a.total_accidents)
          : 0.0;
  return a;
}

}  // namespace avtk::core
