#include "serve/render.h"

#include <cmath>
#include <span>

#include "core/analysis.h"
#include "obs/json.h"
#include "reliability/mcf.h"
#include "reliability/nhpp.h"

namespace avtk::serve {

namespace json = obs::json;
using dataset::manufacturer;

namespace {

// JSON has no NaN/Inf; degenerate statistics serialize as null.
json::value num(double v) { return std::isfinite(v) ? json::value(v) : json::value(nullptr); }
json::value opt_num(const std::optional<double>& v) {
  return v ? num(*v) : json::value(nullptr);
}

std::vector<manufacturer> makers_for(const dataset::database_view& db, const query& q) {
  if (q.maker) return {*q.maker};
  return db.manufacturers_present();  // enum order: deterministic
}

json::value metrics_payload(const dataset::database_view& db,
                            const std::vector<manufacturer>& makers) {
  json::array rows;
  for (const auto maker : makers) {
    const auto m = core::compute_metrics(db, maker);
    if (m.total_miles <= 0 && m.total_disengagements == 0 && m.total_accidents == 0) continue;
    rows.emplace_back(json::object{
        {"maker", json::value(std::string(dataset::manufacturer_id(maker)))},
        {"miles", num(m.total_miles)},
        {"disengagements", json::value(m.total_disengagements)},
        {"accidents", json::value(m.total_accidents)},
        {"overall_dpm", num(m.overall_dpm)},
        {"median_dpm", opt_num(m.median_dpm)},
        {"dpa", opt_num(m.dpa)},
        {"apm", opt_num(m.apm)},
        {"apmi", opt_num(m.apmi)},
        {"vs_human", opt_num(m.vs_human)},
    });
  }
  return json::object{{"makers", json::value(std::move(rows))}};
}

json::value tags_payload(const dataset::database_view& db,
                         const std::vector<manufacturer>& makers) {
  json::array rows;
  for (const auto& row : core::build_tag_fractions(db, makers)) {
    json::object fractions;
    for (const auto& [tag, fraction] : row.fractions) {
      fractions.emplace_back(std::string(nlp::tag_id(tag)), num(fraction));
    }
    rows.emplace_back(json::object{
        {"maker", json::value(std::string(dataset::manufacturer_id(row.maker)))},
        {"total", json::value(row.total)},
        {"fractions", json::value(std::move(fractions))},
    });
  }
  return json::object{{"makers", json::value(std::move(rows))}};
}

json::value categories_payload(const dataset::database_view& db,
                               const std::vector<manufacturer>& makers) {
  json::array rows;
  for (const auto& row : core::build_table4(db, makers)) {
    rows.emplace_back(json::object{
        {"maker", json::value(std::string(dataset::manufacturer_id(row.maker)))},
        {"planner_controller", num(row.planner_controller)},
        {"perception_recognition", num(row.perception_recognition)},
        {"system", num(row.system)},
        {"unknown", num(row.unknown)},
        {"total", json::value(row.total)},
    });
  }
  return json::object{{"makers", json::value(std::move(rows))}};
}

json::value modality_payload(const dataset::database_view& db,
                             const std::vector<manufacturer>& makers) {
  json::array rows;
  for (const auto& row : core::build_table5(db, makers)) {
    rows.emplace_back(json::object{
        {"maker", json::value(std::string(dataset::manufacturer_id(row.maker)))},
        {"automatic", num(row.automatic)},
        {"manual", num(row.manual)},
        {"planned", num(row.planned)},
        {"total", json::value(row.total)},
    });
  }
  return json::object{{"makers", json::value(std::move(rows))}};
}

json::value trend_payload(const dataset::database_view& db,
                          const std::vector<manufacturer>& makers) {
  json::array rows;
  for (const auto maker : makers) {
    const auto series = core::build_monthly_trend(db, maker);
    if (series.empty()) continue;
    json::array months;
    for (const auto& point : series) {
      months.emplace_back(json::object{
          {"month", json::value(point.month.to_string())},
          {"miles", num(point.miles)},
          {"disengagements", json::value(point.disengagements)},
          {"dpm", num(point.dpm())},
      });
    }
    rows.emplace_back(json::object{
        {"maker", json::value(std::string(dataset::manufacturer_id(maker)))},
        {"months", json::value(std::move(months))},
    });
  }
  return json::object{{"makers", json::value(std::move(rows))}};
}

json::value fit_payload(const dataset::database_view& db,
                        const std::vector<manufacturer>& makers, std::size_t min_samples) {
  constexpr double k_outlier_cut_s = 300.0;  // build_fig11's default
  json::array rows;
  for (const auto& fit : core::build_fig11(db, makers, min_samples, k_outlier_cut_s)) {
    // Exponential baseline over the same cleaned sample the Weibull fits
    // used, for the paper's Weibull-vs-exponential comparison.
    auto rts = db.reaction_times(fit.maker);
    std::erase_if(rts, [&](double t) { return !(t > 0) || t > k_outlier_cut_s; });
    json::value exponential(nullptr);
    if (rts.size() >= 2) {
      const auto exp_fit = stats::exponential_dist::fit(rts);
      exponential = json::object{{"mean", num(exp_fit.mean())}};
    }
    rows.emplace_back(json::object{
        {"maker", json::value(std::string(dataset::manufacturer_id(fit.maker)))},
        {"n", json::value(fit.n)},
        {"weibull", json::value(json::object{{"shape", num(fit.weibull.shape())},
                                             {"scale", num(fit.weibull.scale())}})},
        {"exp_weibull", json::value(json::object{{"shape", num(fit.exp_weibull.shape())},
                                                 {"scale", num(fit.exp_weibull.scale())},
                                                 {"power", num(fit.exp_weibull.power())}})},
        {"exponential", std::move(exponential)},
        {"ks_p_weibull", num(fit.ks_p_weibull)},
        {"ks_p_exp_weibull", num(fit.ks_p_exp_weibull)},
    });
  }
  return json::object{{"makers", json::value(std::move(rows))}};
}

json::value compare_payload(const dataset::database_view& db,
                            const std::vector<manufacturer>& makers) {
  json::array rows;
  std::optional<double> best_dpm;
  std::optional<double> worst_dpm;
  std::optional<manufacturer> best_maker;
  std::optional<manufacturer> worst_maker;
  for (const auto& row : core::build_table7(db, makers)) {
    rows.emplace_back(json::object{
        {"maker", json::value(std::string(dataset::manufacturer_id(row.maker)))},
        {"median_dpm", opt_num(row.median_dpm)},
        {"median_apm", opt_num(row.median_apm)},
        {"vs_human", opt_num(row.vs_human)},
    });
    if (row.median_dpm && *row.median_dpm > 0) {
      if (!best_dpm || *row.median_dpm < *best_dpm) {
        best_dpm = row.median_dpm;
        best_maker = row.maker;
      }
      if (!worst_dpm || *row.median_dpm > *worst_dpm) {
        worst_dpm = row.median_dpm;
        worst_maker = row.maker;
      }
    }
  }
  json::object out{{"rows", json::value(std::move(rows))}};
  if (best_maker && worst_maker) {
    out.emplace_back("best", json::value(std::string(dataset::manufacturer_id(*best_maker))));
    out.emplace_back("worst", json::value(std::string(dataset::manufacturer_id(*worst_maker))));
    // The paper's "~100x disparity" headline, live from the database.
    out.emplace_back("median_dpm_spread", num(*worst_dpm / *best_dpm));
  }
  return out;
}

// Bound on curve points per maker in an mcf payload: the full Waymo curve
// has thousands of steps, which would dominate every response and cache
// entry for no analytical gain.
constexpr std::size_t k_mcf_payload_points = 200;

json::value mcf_payload(const dataset::database_view& db, const query& q) {
  json::array rows;
  for (const auto& mp : reliability::extract_processes(db)) {
    // Per-VIN processes where the reports expose them; the fleet process is
    // the single-unit fallback (bands then degenerate, as they should).
    const std::span<const reliability::event_process> units =
        mp.vehicles.empty() ? std::span(&mp.fleet, 1) : std::span(mp.vehicles);
    reliability::mcf_options options;
    options.seed = q.seed;
    options.replicates = q.replicates;
    options.max_points = k_mcf_payload_points;
    const auto estimate = reliability::estimate_mcf(units, options);
    json::array points;
    for (const auto& p : estimate.points) {
      points.emplace_back(json::object{
          {"miles", num(p.miles)},
          {"events", json::value(p.events)},
          {"at_risk", json::value(p.at_risk)},
          {"mcf", num(p.mcf)},
          {"variance", num(p.variance)},
          {"lower", num(p.lower)},
          {"upper", num(p.upper)},
      });
    }
    rows.emplace_back(json::object{
        {"maker", json::value(std::string(dataset::manufacturer_id(mp.maker)))},
        {"units", json::value(estimate.units)},
        {"events", json::value(estimate.total_events)},
        {"points", json::value(std::move(points))},
    });
  }
  return json::object{
      {"replicates", json::value(q.replicates)},
      {"seed", json::value(q.seed)},
      {"makers", json::value(std::move(rows))},
  };
}

json::value nhpp_fit_json(const reliability::nhpp_fit& f, bool power_law) {
  json::object out;
  if (power_law) {
    out.emplace_back("shape", num(f.shape));
    out.emplace_back("scale", num(f.scale));
  } else {
    out.emplace_back("alpha", num(f.alpha));
    out.emplace_back("gamma", num(f.gamma));
  }
  out.emplace_back("log_likelihood", num(f.log_likelihood));
  out.emplace_back("aic", num(f.aic));
  out.emplace_back("converged", json::value(f.converged));
  return out;
}

json::value nhpp_payload(const dataset::database_view& db, const query& q) {
  json::array rows;
  for (const auto& mp : reliability::extract_processes(db)) {
    // Trend models run on the fleet-level superposed process, so the
    // extrapolation answers "expected events over the next H fleet miles".
    const auto analysis = reliability::fit_trend(std::span(&mp.fleet, 1));
    const double at = mp.fleet.exposure;
    rows.emplace_back(json::object{
        {"maker", json::value(std::string(dataset::manufacturer_id(mp.maker)))},
        {"events", json::value(analysis.events)},
        {"exposure_miles", num(analysis.exposure)},
        {"hpp", json::value(json::object{
                    {"rate", num(analysis.hpp.rate)},
                    {"log_likelihood", num(analysis.hpp.log_likelihood)},
                    {"aic", num(analysis.hpp.aic)},
                })},
        {"power_law", nhpp_fit_json(analysis.power_law, true)},
        {"log_linear", nhpp_fit_json(analysis.log_linear, false)},
        {"laplace", json::value(json::object{
                        {"statistic", num(analysis.laplace.statistic)},
                        {"p_value", num(analysis.laplace.p_value)},
                    })},
        {"preferred", json::value(std::string(analysis.preferred()))},
        {"expected_events",
         json::value(json::object{
             {"horizon_miles", num(q.horizon_miles)},
             {"hpp", num(reliability::expected_events(analysis, "hpp", at, q.horizon_miles))},
             {"power_law",
              num(reliability::expected_events(analysis, "power_law", at, q.horizon_miles))},
             {"log_linear",
              num(reliability::expected_events(analysis, "log_linear", at, q.horizon_miles))},
         })},
    });
  }
  return json::object{
      {"horizon_miles", num(q.horizon_miles)},
      {"makers", json::value(std::move(rows))},
  };
}

// Dispatches over an already-restricted view: the caller resolved the
// filters (index selections, a cross-shard merge, or a filtered copy), so
// every builder below just runs over whatever `db` exposes.
json::value payload_of(const dataset::database_view& db, const query& q) {
  const auto makers = makers_for(db, q);
  switch (q.kind) {
    case query_kind::metrics: return metrics_payload(db, makers);
    case query_kind::tags: return tags_payload(db, makers);
    case query_kind::categories: return categories_payload(db, makers);
    case query_kind::modality: return modality_payload(db, makers);
    case query_kind::trend: return trend_payload(db, makers);
    case query_kind::fit: return fit_payload(db, makers, q.min_samples);
    case query_kind::compare: return compare_payload(db, makers);
    case query_kind::mcf: return mcf_payload(db, q);
    case query_kind::nhpp: return nhpp_payload(db, q);
  }
  return json::object{};
}

}  // namespace

std::string render_payload(const dataset::database_view& db, const query& q) {
  return payload_of(db, q).dump();
}

}  // namespace avtk::serve
