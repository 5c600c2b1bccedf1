#include "core/exposure.h"

#include <algorithm>

#include "util/table.h"

namespace avtk::core {

using dataset::manufacturer;

std::vector<stats::survival_observation> miles_to_disengagement_spells(
    const dataset::database_view& db, manufacturer maker) {
  // Vehicle-months carry the attribution already (including the pro-rata
  // handling of Waymo-style monthly aggregates), sorted by (vehicle, month).
  const auto cells = db.vehicle_months(maker);
  std::vector<stats::survival_observation> spells;
  double open_spell = 0;  // exposure since the vehicle's last event
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    if (c.disengagements <= 0) {
      open_spell += c.miles;
    } else {
      // Split the month uniformly across its k events: k completed spells
      // of m/(k+1) miles each (the first absorbs the carried exposure),
      // then carry the final fragment forward.
      const double fragment = c.miles / static_cast<double>(c.disengagements + 1);
      for (long long e = 0; e < c.disengagements; ++e) {
        const double spell = open_spell + fragment;
        open_spell = 0;
        if (spell > 0) spells.push_back({spell, true});
      }
      open_spell = fragment;
    }
    if (i + 1 == cells.size() || cells[i + 1].vehicle_id != c.vehicle_id) {
      if (open_spell > 0) spells.push_back({open_spell, false});  // censored tail
      open_spell = 0;
    }
  }
  return spells;
}

reliability_metric compute_reliability_metric(const dataset::database_view& db,
                                              manufacturer maker,
                                              std::optional<double> horizon_miles) {
  reliability_metric out;
  out.maker = maker;
  const auto spells = miles_to_disengagement_spells(db, maker);
  out.spells = spells.size();
  for (const auto& s : spells) {
    if (s.event) ++out.events;
  }
  if (spells.empty()) return out;

  out.mtbf_miles = stats::censored_exponential_mtbf(spells);

  if (out.events > 0) {
    const stats::kaplan_meier km(spells);
    out.km_median_miles = km.median_survival();
    double horizon = 0;
    if (horizon_miles) {
      horizon = *horizon_miles;
    } else {
      for (const auto& s : spells) horizon = std::max(horizon, s.time);
    }
    out.horizon_miles = horizon;
    if (horizon > 0) out.km_mean_miles_at_horizon = km.restricted_mean(horizon);
  }
  return out;
}

std::vector<reliability_metric> compute_all_reliability_metrics(
    const dataset::database_view& db, std::size_t min_events) {
  std::vector<reliability_metric> out;
  for (const auto maker : db.manufacturers_present()) {
    auto metric = compute_reliability_metric(db, maker);
    if (metric.events >= min_events) out.push_back(metric);
  }
  std::sort(out.begin(), out.end(), [](const reliability_metric& a,
                                       const reliability_metric& b) {
    return a.mtbf_miles.value_or(0) > b.mtbf_miles.value_or(0);
  });
  return out;
}

std::string render_reliability_metrics(const dataset::database_view& db) {
  text_table t({"Manufacturer", "spells", "events", "MTBF (miles)", "KM median",
                "KM mean (restricted)"});
  t.set_title(
      "Miles-to-disengagement reliability (the paper's SV-C2 proposed metric; "
      "MTBF ordering should track Table VII's DPM ordering)");
  for (const auto& m : compute_all_reliability_metrics(db)) {
    t.add_row({std::string(dataset::manufacturer_short_name(m.maker)),
               std::to_string(m.spells), std::to_string(m.events),
               m.mtbf_miles ? format_number(*m.mtbf_miles, 4) : "-",
               m.km_median_miles ? format_number(*m.km_median_miles, 4) : "-",
               format_number(m.km_mean_miles_at_horizon, 4)});
  }
  return t.render();
}

}  // namespace avtk::core
