#include "core/analysis.h"

#include <algorithm>
#include <cmath>

#include "dataset/ground_truth.h"

namespace avtk::core {

using dataset::manufacturer;
namespace gt = dataset::ground_truth;

q1_answer answer_q1(const dataset::database_view& db,
                    const std::vector<manufacturer>& makers) {
  q1_answer out;
  out.dpm_distributions = build_fig4(db, makers);
  out.cumulative_curves = build_fig5(db, makers);

  std::vector<double> medians;
  for (const auto& s : out.dpm_distributions) {
    if (s.box.median > 0) medians.push_back(s.box.median);
  }
  if (medians.size() >= 2) {
    out.median_dpm_spread = stats::max(medians) / stats::min(medians);
  }
  for (const auto& s : out.cumulative_curves) {
    // Slope of log(cumulative disengagements) vs log(cumulative miles):
    // an asymptote (no new disengagements) would push the slope toward 0.
    if (s.log_log_fit && s.log_log_fit->slope < 0.1) out.any_maker_at_asymptote = true;
  }
  return out;
}

q2_answer answer_q2(const dataset::database_view& db,
                    const std::vector<manufacturer>& makers) {
  q2_answer out;
  out.categories = build_table4(db, makers);
  out.tags = build_tag_fractions(db, makers);
  out.modality = build_table5(db, makers);

  long long total = 0;
  long long perception = 0;
  long long planner = 0;
  long long system = 0;
  for (const auto& d : db.disengagements()) {
    ++total;
    switch (d.category) {
      case nlp::failure_category::ml_design:
        if (nlp::ml_subcategory_of(d.tag) == nlp::ml_subcategory::perception_recognition) {
          ++perception;
        } else {
          ++planner;
        }
        break;
      case nlp::failure_category::system: ++system; break;
      case nlp::failure_category::unknown: break;
    }
  }
  if (total > 0) {
    const double n = static_cast<double>(total);
    out.perception_fraction = static_cast<double>(perception) / n;
    out.planner_fraction = static_cast<double>(planner) / n;
    out.system_fraction = static_cast<double>(system) / n;
    out.ml_fraction = out.perception_fraction + out.planner_fraction;
  }

  double auto_sum = 0;
  std::size_t auto_n = 0;
  for (const auto& row : out.modality) {
    if (row.total > 0) {
      auto_sum += row.automatic;
      ++auto_n;
    }
  }
  if (auto_n > 0) out.mean_automatic_fraction = auto_sum / static_cast<double>(auto_n);
  return out;
}

q3_answer answer_q3(const dataset::database_view& db,
                    const std::vector<manufacturer>& makers) {
  q3_answer out;
  out.yearly = build_fig7(db, makers);
  out.pooled_correlation = build_fig8(db, makers);
  out.per_maker = build_fig9(db, makers);
  return out;
}

q4_answer answer_q4(const dataset::database_view& db,
                    const std::vector<manufacturer>& makers) {
  q4_answer out;
  out.distributions = build_fig10(db, makers);
  out.fits = build_fig11(db, makers);
  out.vs_miles = build_reaction_correlations(db, makers);

  // Overall mean reaction time, excluding implausible outliers (> 5 min)
  // the way the paper's 0.85 s average implicitly does.
  double sum = 0;
  std::size_t n = 0;
  for (const auto maker : makers) {
    for (const double t : db.reaction_times(maker)) {
      if (t > 300.0) continue;
      sum += t;
      ++n;
    }
  }
  out.overall_n = n;
  if (n > 0) out.overall_mean_s = sum / static_cast<double>(n);
  return out;
}

q5_answer answer_q5(const dataset::database_view& db,
                    const std::vector<manufacturer>& makers) {
  q5_answer out;
  out.accidents = build_table6(db);
  out.reliability = build_table7(db, makers);
  out.missions = build_table8(db);
  out.speeds = build_fig12(db);

  std::vector<double> ratios;
  for (const auto& row : out.reliability) {
    if (row.vs_human) ratios.push_back(*row.vs_human);
  }
  if (!ratios.empty()) {
    out.worst_vs_human = stats::max(ratios);
    out.best_vs_human = stats::min(ratios);
  }
  return out;
}

bool headline_claim::within_tolerance() const {
  if (paper_value == 0) return std::fabs(measured_value) <= tolerance_fraction;
  return std::fabs(measured_value - paper_value) <=
         tolerance_fraction * std::fabs(paper_value);
}

std::vector<headline_claim> evaluate_headlines(const dataset::database_view& db,
                                               const std::vector<manufacturer>& makers) {
  std::vector<headline_claim> out;
  const auto agg = compute_aggregates(db);
  const auto q2 = answer_q2(db, makers);
  const auto q3 = answer_q3(db, makers);
  const auto q4 = answer_q4(db, makers);
  const auto q5 = answer_q5(db, makers);

  out.push_back({"total disengagements", static_cast<double>(gt::k_total_disengagements),
                 static_cast<double>(agg.total_disengagements), 0.02});
  out.push_back({"total accidents", static_cast<double>(gt::k_total_accidents),
                 static_cast<double>(agg.total_accidents), 0.0});
  out.push_back({"total autonomous miles", gt::k_total_miles, agg.total_miles, 0.02});
  out.push_back({"miles per disengagement", gt::k_miles_per_disengagement,
                 agg.miles_per_disengagement, 0.10});
  out.push_back({"disengagements per accident", gt::k_disengagements_per_accident,
                 agg.disengagements_per_accident, 0.10});
  out.push_back({"ML/Design fraction of disengagements", gt::k_ml_fraction, q2.ml_fraction,
                 0.12});
  out.push_back({"perception fraction", gt::k_perception_fraction, q2.perception_fraction,
                 0.20});
  out.push_back({"planner fraction", gt::k_planner_fraction, q2.planner_fraction, 0.30});
  out.push_back({"system fraction", gt::k_system_fraction, q2.system_fraction, 0.20});
  out.push_back({"mean automatic-modality share", 0.48, q2.mean_automatic_fraction, 0.25});
  out.push_back({"Fig.8 Pearson r (log DPM vs log cum. miles)", gt::k_fig8_pearson_r,
                 q3.pooled_correlation.pearson.r, 0.25});
  out.push_back({"mean reaction time (s)", gt::k_mean_reaction_time_s, q4.overall_mean_s, 0.25});
  out.push_back({"accidents with relative speed < 10 mph", gt::k_fig12_low_speed_fraction,
                 q5.speeds.fraction_relative_below_10mph, 0.20});
  return out;
}

}  // namespace avtk::core
