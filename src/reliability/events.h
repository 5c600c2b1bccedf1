// avtk/reliability/events.h
//
// Recurrent-events view of the failure database: the same disengagement
// data the paper tabulates once per release is fundamentally a repairable-
// systems event process (Hong et al., arXiv:2102.01740). This header turns
// `dataset::failure_database` into per-manufacturer event processes on a
// mileage clock — a fleet-level process (cumulative fleet miles) for trend
// models, and per-VIN processes (each vehicle's own cumulative miles) for
// the mean-cumulative-function estimator.
//
// The extraction rides on `database_view::vehicle_months(maker)`, so events
// without a resolvable vehicle or month inherit its documented attribution
// (equal shares across the month's active vehicles, miles-proportional as
// the fallback) instead of inventing a second attribution scheme; the fleet
// process reads the same cells rolled up by `dataset::fleet_months`, the
// month roll-up the monthly trend (core/figures.h) reads too. Within a
// month, a cell's d events are spread deterministically at fractions
// (j+1)/(d+1) of the month's mileage span — no randomness, so repeated
// extractions (and therefore cached serve payloads) are byte-stable.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "dataset/view.h"
#include "dataset/manufacturers.h"

namespace avtk::reliability {

/// One observed event process: a unit followed from 0 to `exposure`
/// cumulative miles, with events at strictly positive mile positions.
struct event_process {
  std::string unit_id;         ///< vehicle id, or the maker id for fleets
  double exposure = 0.0;       ///< total observed miles (the censor point)
  std::vector<double> events;  ///< event positions in (0, exposure], ascending

  std::size_t count() const { return events.size(); }
};

/// Every process extracted for one manufacturer.
struct maker_processes {
  dataset::manufacturer maker = dataset::manufacturer::waymo;
  /// The fleet as a single superposed process on the cumulative-fleet-miles
  /// clock — the input to the NHPP trend fits and extrapolation.
  event_process fleet;
  /// Per-VIN processes (one per vehicle with positive mileage), each on its
  /// own cumulative-miles clock — the input to the MCF estimator. Vehicles
  /// whose ids the reports redact are merged by
  /// `database_view::vehicle_months()` into the empty-id vehicle and appear
  /// here as one unit.
  std::vector<event_process> vehicles;

  std::size_t vehicle_events() const;
};

/// Extracts one manufacturer's processes from its vehicle-month cells;
/// nullopt when the maker has no positive mileage — a process needs an
/// exposure clock.
std::optional<maker_processes> extract_processes(const dataset::database_view& db,
                                                 dataset::manufacturer maker);

/// Every manufacturer's extraction, in enum order (like
/// `manufacturers_present()`), skipping the nullopt ones.
std::vector<maker_processes> extract_processes(const dataset::database_view& db);

}  // namespace avtk::reliability
