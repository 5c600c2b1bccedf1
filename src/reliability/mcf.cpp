#include "reliability/mcf.h"

#include <algorithm>
#include <utility>

#include "stats/bootstrap.h"
#include "util/errors.h"

namespace avtk::reliability {

namespace {

// Units with exposure >= t (an event at a unit's own censor point still
// counts that unit at risk). `exposures` sorted ascending.
std::size_t at_risk(const std::vector<double>& exposures, double t) {
  const auto first = std::lower_bound(exposures.begin(), exposures.end(), t);
  return static_cast<std::size_t>(exposures.end() - first);
}

// MCF step values at the (ascending) grid positions for one collection of
// units — the evaluation the bootstrap re-runs per resample. Every event
// belongs to a unit in the collection, so its at-risk count is >= 1.
std::vector<double> mcf_on_grid(const std::vector<const event_process*>& units,
                                const std::vector<double>& grid) {
  std::vector<double> events;
  std::vector<double> exposures;
  exposures.reserve(units.size());
  for (const auto* u : units) {
    exposures.push_back(u->exposure);
    events.insert(events.end(), u->events.begin(), u->events.end());
  }
  std::sort(events.begin(), events.end());
  std::sort(exposures.begin(), exposures.end());

  std::vector<double> out(grid.size());
  double cumulative = 0.0;
  std::size_t e = 0;
  for (std::size_t g = 0; g < grid.size(); ++g) {
    while (e < events.size() && events[e] <= grid[g]) {
      cumulative += 1.0 / static_cast<double>(at_risk(exposures, events[e]));
      ++e;
    }
    out[g] = cumulative;
  }
  return out;
}

// Index-uniform thinning that always keeps the last point. The stride is
// >= 1, so the kept indices are strictly increasing.
std::vector<std::size_t> thin_indices(std::size_t n, std::size_t max_points) {
  std::vector<std::size_t> out;
  if (max_points == 0 || n <= max_points) {
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = i;
    return out;
  }
  out.reserve(max_points);
  for (std::size_t i = 0; i < max_points; ++i) {
    out.push_back(i * (n - 1) / (max_points - 1));
  }
  return out;
}

}  // namespace

mcf_estimate estimate_mcf(std::span<const event_process> units, const mcf_options& options) {
  std::vector<const event_process*> active;
  for (const auto& u : units) {
    if (u.exposure > 0) active.push_back(&u);
  }
  if (active.empty()) throw logic_error("estimate_mcf: no unit has positive exposure");

  mcf_estimate out;
  out.units = active.size();

  // The full curve: one step per distinct event position.
  std::vector<double> events;
  std::vector<double> exposures;
  exposures.reserve(active.size());
  for (const auto* u : active) {
    exposures.push_back(u->exposure);
    events.insert(events.end(), u->events.begin(), u->events.end());
  }
  out.total_events = events.size();
  std::sort(events.begin(), events.end());
  std::sort(exposures.begin(), exposures.end());

  std::vector<mcf_point> full;
  double mcf = 0.0;
  double variance = 0.0;
  for (std::size_t i = 0; i < events.size();) {
    std::size_t j = i;
    while (j < events.size() && events[j] == events[i]) ++j;
    const auto d = static_cast<double>(j - i);
    const auto n = at_risk(exposures, events[i]);
    mcf += d / static_cast<double>(n);
    variance += d / (static_cast<double>(n) * static_cast<double>(n));
    mcf_point p;
    p.miles = events[i];
    p.events = j - i;
    p.at_risk = n;
    p.mcf = mcf;
    p.variance = variance;
    full.push_back(p);
    i = j;
  }

  const auto kept = thin_indices(full.size(), options.max_points);
  out.points.reserve(kept.size());
  for (const auto i : kept) out.points.push_back(full[i]);

  if (!out.points.empty()) {
    std::vector<double> grid;
    grid.reserve(out.points.size());
    for (const auto& p : out.points) grid.push_back(p.miles);
    const auto bands = stats::bootstrap_curve_bands(
        active.size(),
        [&](std::span<const std::size_t> indices) {
          std::vector<const event_process*> resampled;
          resampled.reserve(indices.size());
          for (const auto i : indices) resampled.push_back(active[i]);
          return mcf_on_grid(resampled, grid);
        },
        options.seed, options.replicates, options.confidence);
    for (std::size_t i = 0; i < out.points.size(); ++i) {
      out.points[i].lower = bands.lower[i];
      out.points[i].upper = bands.upper[i];
    }
  }
  return out;
}

}  // namespace avtk::reliability
