#include "core/figures.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>

#include "core/metrics.h"
#include "stats/tests.h"

namespace avtk::core {

using dataset::manufacturer;

namespace {

// Month-end cumulative fleet miles, keyed by month index, over one maker's
// fleet months (dataset::fleet_months).
std::map<std::int64_t, double> cumulative_fleet_miles(
    std::span<const dataset::vehicle_month> months) {
  std::map<std::int64_t, double> out;
  double cum = 0;
  for (const auto& month : months) {
    cum += month.miles;
    out.emplace_hint(out.end(), month.month.index(), cum);
  }
  return out;
}

}  // namespace

std::vector<monthly_point> build_monthly_trend(const dataset::database_view& db,
                                               manufacturer maker) {
  std::vector<monthly_point> out;
  for (const auto& month : dataset::fleet_months(db.vehicle_months(maker))) {
    out.push_back({month.month, month.miles, month.disengagements});
  }
  return out;
}

std::vector<fig4_series> build_fig4(const dataset::database_view& db,
                                    const std::vector<manufacturer>& makers) {
  std::vector<fig4_series> out;
  for (const auto maker : makers) {
    const auto dpms = per_car_dpm(db, maker);
    if (dpms.empty()) continue;
    out.push_back(fig4_series{maker, stats::summarize_box(dpms)});
  }
  return out;
}

std::vector<fig5_series> build_fig5(const dataset::database_view& db,
                                    const std::vector<manufacturer>& makers) {
  std::vector<fig5_series> out;
  for (const auto maker : makers) {
    fig5_series s;
    s.maker = maker;
    double cum_miles = 0;
    double cum_events = 0;
    for (const auto& cell : build_monthly_trend(db, maker)) {
      cum_miles += cell.miles;
      cum_events += static_cast<double>(cell.disengagements);
      s.cumulative_miles.push_back(cum_miles);
      s.cumulative_disengagements.push_back(cum_events);
    }
    // Log-log fit over months with positive coordinates.
    std::vector<double> xs;
    std::vector<double> ys;
    for (std::size_t i = 0; i < s.cumulative_miles.size(); ++i) {
      if (s.cumulative_miles[i] > 0 && s.cumulative_disengagements[i] > 0) {
        xs.push_back(s.cumulative_miles[i]);
        ys.push_back(s.cumulative_disengagements[i]);
      }
    }
    if (xs.size() >= 2) s.log_log_fit = stats::fit_log_log(xs, ys);
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<fig7_series> build_fig7(const dataset::database_view& db,
                                    const std::vector<manufacturer>& makers) {
  std::vector<fig7_series> out;
  for (const auto maker : makers) {
    fig7_series s;
    s.maker = maker;
    for (const int year : {2014, 2015, 2016}) {
      const auto dpms = per_car_dpm(db, maker, year);
      if (!dpms.empty()) s.by_year.emplace(year, stats::summarize_box(dpms));
    }
    if (!s.by_year.empty()) out.push_back(std::move(s));
  }
  return out;
}

fig8_data build_fig8(const dataset::database_view& db,
                     const std::vector<manufacturer>& makers) {
  fig8_data out;
  for (const auto maker : makers) {
    const auto cells = db.vehicle_months(maker);
    const auto fleet_cum = cumulative_fleet_miles(dataset::fleet_months(cells));
    for (const auto& vm : cells) {
      if (!(vm.miles > 0) || vm.disengagements <= 0) continue;
      const double dpm = static_cast<double>(vm.disengagements) / vm.miles;
      const double cum = fleet_cum.at(vm.month.index());
      if (cum > 0) {
        out.log_cumulative_miles.push_back(std::log(cum));
        out.log_dpm.push_back(std::log(dpm));
      }
    }
  }
  if (out.log_dpm.size() >= 3) {
    out.pearson = stats::pearson(out.log_cumulative_miles, out.log_dpm);
  }
  return out;
}

std::vector<fig9_series> build_fig9(const dataset::database_view& db,
                                    const std::vector<manufacturer>& makers) {
  std::vector<fig9_series> out;
  for (const auto maker : makers) {
    fig9_series s;
    s.maker = maker;
    double cum = 0;
    for (const auto& cell : build_monthly_trend(db, maker)) {
      cum += cell.miles;
      if (cell.miles > 0 && cell.disengagements > 0) {
        s.cumulative_miles.push_back(cum);
        s.dpm.push_back(cell.dpm());
      }
    }
    if (s.cumulative_miles.size() >= 2) {
      s.log_log_fit = stats::fit_log_log(s.cumulative_miles, s.dpm);
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<fig10_series> build_fig10(const dataset::database_view& db,
                                      const std::vector<manufacturer>& makers) {
  std::vector<fig10_series> out;
  for (const auto maker : makers) {
    const auto rts = db.reaction_times(maker);
    if (rts.empty()) continue;
    fig10_series s;
    s.maker = maker;
    s.box = stats::summarize_box(rts);
    s.mean = stats::mean(rts);
    s.n = rts.size();
    out.push_back(s);
  }
  return out;
}

std::vector<fig11_fit> build_fig11(const dataset::database_view& db,
                                   const std::vector<manufacturer>& makers,
                                   std::size_t min_samples, double outlier_cut_s) {
  std::vector<fig11_fit> out;
  for (const auto maker : makers) {
    auto rts = db.reaction_times(maker);
    std::erase_if(rts, [&](double t) { return !(t > 0) || t > outlier_cut_s; });
    if (rts.size() < min_samples) continue;
    const auto w = stats::weibull_dist::fit(rts);
    const auto ew = stats::exp_weibull_dist::fit(rts);
    fig11_fit fit(maker, w, ew);
    fit.n = rts.size();
    fit.ks_p_weibull = stats::ks_test(rts, [&](double x) { return w.cdf(x); }).p_value;
    fit.ks_p_exp_weibull = stats::ks_test(rts, [&](double x) { return ew.cdf(x); }).p_value;
    out.push_back(fit);
  }
  return out;
}

fig12_data build_fig12(const dataset::database_view& db) {
  fig12_data out;
  for (const auto& a : db.accidents()) {
    if (a.av_speed_mph) out.av_speeds.push_back(*a.av_speed_mph);
    if (a.other_speed_mph) out.other_speeds.push_back(*a.other_speed_mph);
    if (const auto rel = a.relative_speed_mph()) out.relative_speeds.push_back(*rel);
  }
  const auto fit_if_possible = [](const std::vector<double>& xs)
      -> std::optional<stats::exponential_dist> {
    if (xs.size() < 3) return std::nullopt;
    double sum = 0;
    for (double x : xs) sum += x;
    if (!(sum > 0)) return std::nullopt;
    return stats::exponential_dist::fit(xs);
  };
  out.av_fit = fit_if_possible(out.av_speeds);
  out.other_fit = fit_if_possible(out.other_speeds);
  out.relative_fit = fit_if_possible(out.relative_speeds);
  if (!out.relative_speeds.empty()) {
    const auto below =
        std::count_if(out.relative_speeds.begin(), out.relative_speeds.end(),
                      [](double v) { return v < 10.0; });
    out.fraction_relative_below_10mph =
        static_cast<double>(below) / static_cast<double>(out.relative_speeds.size());
  }
  return out;
}

std::vector<reaction_correlation> build_reaction_correlations(
    const dataset::database_view& db, const std::vector<manufacturer>& makers,
    std::size_t min_samples) {
  std::vector<reaction_correlation> out;
  for (const auto maker : makers) {
    const auto fleet_cum = cumulative_fleet_miles(dataset::fleet_months(db.vehicle_months(maker)));
    std::vector<double> miles;
    std::vector<double> rts;
    for (const auto* d : db.disengagements_of(maker)) {
      if (!d->reaction_time_s) continue;
      const auto bucket = d->month_bucket();
      if (!bucket) continue;
      const auto it = fleet_cum.find(bucket->index());
      if (it == fleet_cum.end() || !(it->second > 0)) continue;
      miles.push_back(it->second);
      rts.push_back(*d->reaction_time_s);
    }
    if (miles.size() < min_samples) continue;
    out.push_back(reaction_correlation{maker, stats::pearson(miles, rts)});
  }
  return out;
}

}  // namespace avtk::core
