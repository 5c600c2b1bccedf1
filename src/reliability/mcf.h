// avtk/reliability/mcf.h
//
// Nonparametric mean-cumulative-function (MCF) estimation for recurrent
// events under right censoring — the fleet-reliability view of Hong et al.
// (arXiv:2102.01740, §3): at mileage t, MCF(t) is the expected cumulative
// number of disengagements a vehicle has accumulated by its t-th mile.
//
// Estimator (Nelson's MCF / Nelson–Aalen increments): at each event
// position t with d events and n units still under observation,
//   MCF(t) = sum_{s <= t} d_s / n_s,
// with the Poisson-style variance  Var(t) = sum_{s <= t} d_s / n_s^2.
// Confidence bands come from the unit (vehicle) bootstrap — resample whole
// vehicles with replacement and re-evaluate the step function on the
// original grid — via stats::bootstrap_curve_bands with an explicit seed,
// so the bands are deterministic across runs and parallelism.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "reliability/events.h"

namespace avtk::reliability {

/// One step of the estimated MCF.
struct mcf_point {
  double miles = 0.0;       ///< event position on the unit's mileage clock
  std::size_t events = 0;   ///< events at exactly this position
  std::size_t at_risk = 0;  ///< units with exposure >= miles
  double mcf = 0.0;         ///< estimate just after this position
  double variance = 0.0;    ///< Nelson–Aalen-style variance of the estimate
  double lower = 0.0;       ///< pointwise bootstrap percentile band
  double upper = 0.0;
};

struct mcf_options {
  /// Seeds the vehicle-bootstrap resampling stream for the bands. The
  /// same seed (and inputs) always reproduces the same bands bit-for-bit.
  std::uint64_t seed = 42;
  int replicates = 200;      ///< bootstrap replicates (>= 100)
  double confidence = 0.95;  ///< band confidence level, in (0, 1)
  /// Cap on emitted curve points. When the process has more distinct event
  /// positions, the curve is thinned to an index-uniform subset that always
  /// keeps the final point; each kept point is still the exact estimate at
  /// that position. 0 keeps every point.
  std::size_t max_points = 0;
};

struct mcf_estimate {
  std::vector<mcf_point> points;  ///< ascending in miles, MCF non-decreasing
  std::size_t units = 0;          ///< processes with positive exposure
  std::size_t total_events = 0;   ///< events across all units
};

/// Estimates the MCF over `units` (per-VIN processes from
/// extract_processes). Units with exposure <= 0 are ignored; throws
/// avtk::logic_error when no unit has positive exposure. A fleet with
/// events but a single unit still gets bands (they degenerate toward the
/// point estimate, as they should).
mcf_estimate estimate_mcf(std::span<const event_process> units, const mcf_options& options = {});

}  // namespace avtk::reliability
