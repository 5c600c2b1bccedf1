// avtk/core/metrics.h
//
// The paper's reliability metrics: disengagements per mile (DPM), accidents
// per mile (APM = DPM / DPA), disengagements per accident (DPA), and
// accidents per mission (APMi = APM x median trip length). Median DPM is
// computed per car, as in Table VII.
#pragma once

#include <optional>
#include <vector>

#include "dataset/view.h"

namespace avtk::core {

/// Per-manufacturer reliability metrics.
struct manufacturer_metrics {
  dataset::manufacturer maker = dataset::manufacturer::waymo;
  double total_miles = 0;
  long long total_disengagements = 0;
  long long total_accidents = 0;

  double overall_dpm = 0;                  ///< totals ratio
  std::optional<double> median_dpm;        ///< median of per-car DPM
  std::optional<double> dpa;               ///< disengagements per accident
  std::optional<double> apm;               ///< median_dpm / dpa
  std::optional<double> apmi;              ///< apm * median trip miles
  std::optional<double> vs_human;          ///< apm / human apm
  std::optional<double> vs_airline;        ///< apmi / airline per-mission rate
  std::optional<double> vs_surgical_robot; ///< apmi / surgical-robot rate
};

/// Computes metrics for one manufacturer. Median DPM considers only cars
/// with positive mileage.
manufacturer_metrics compute_metrics(const dataset::database_view& db,
                                     dataset::manufacturer maker);

/// Metrics for every manufacturer present in `db`.
std::vector<manufacturer_metrics> compute_all_metrics(const dataset::database_view& db);

/// Per-car DPM samples for one manufacturer, in vehicle-id order, over
/// cars with positive mileage: Fig. 4's box material, or with `year` only
/// the months of that calendar year (Fig. 7's yearly boxes).
std::vector<double> per_car_dpm(const dataset::database_view& db,
                                dataset::manufacturer maker,
                                std::optional<int> year = std::nullopt);

/// Corpus-wide aggregates (§III-C).
struct corpus_aggregates {
  double total_miles = 0;
  long long total_disengagements = 0;
  long long total_accidents = 0;
  double miles_per_disengagement = 0;
  double disengagements_per_accident = 0;
};
corpus_aggregates compute_aggregates(const dataset::database_view& db);

}  // namespace avtk::core
