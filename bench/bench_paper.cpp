// The paper's evaluation in one process: Tables I and IV-VIII, Figs. 4-12,
// the headline claims (abstract + §V), the §V-C2 miles-to-disengagement
// metric and the §VI context breakdown, in DESIGN.md's experiment-table
// order. The corpus and the Stage I-III pipeline are built once; each
// experiment prints its paper-vs-measured rows under its own banner, and
// the google-benchmark loops time the computation behind it (select one
// with --benchmark_filter, e.g. BM_BuildTable7).
//
// Run: AVTK_BENCH_JSON_DIR=DIR ./build/bench/bench_paper  (writes BENCH_paper.json)
#include "bench/common.h"

#include <cmath>
#include <string>
#include <vector>

#include "core/context.h"
#include "core/exposure.h"
#include "core/narrative.h"
#include "nlp/classifier.h"
#include "stats/dist/exp_weibull.h"
#include "stats/dist/weibull.h"
#include "stats/histogram.h"
#include "stats/nonparametric.h"
#include "util/table.h"

namespace {

using namespace avtk;

// Registers the benchmark `name`, timing one call of `fn` per iteration.
template <typename Fn>
benchmark::internal::Benchmark* timed(const char* name, Fn fn) {
  return benchmark::RegisterBenchmark(name, [fn](benchmark::State& state) {
    for (auto _ : state) benchmark::DoNotOptimize(fn());
  });
}

// Fig. 10 / §V-A4: do the per-manufacturer reaction-time distributions
// actually differ?
std::string render_distribution_tests(const dataset::failure_database& db,
                                      const std::vector<dataset::manufacturer>& makers) {
  std::vector<std::vector<double>> groups;
  std::vector<dataset::manufacturer> group_makers;
  for (const auto maker : makers) {
    auto rts = dataset::database_view(db).reaction_times(maker);
    std::erase_if(rts, [](double t) { return !(t > 0) || t > 300.0; });
    if (rts.size() >= 30) {
      groups.push_back(std::move(rts));
      group_makers.push_back(maker);
    }
  }
  std::string out;
  if (groups.size() >= 2) {
    const auto kw = stats::kruskal_wallis(groups);
    out += "Kruskal-Wallis across " + std::to_string(kw.groups) +
           " manufacturers: H=" + format_number(kw.h, 4) +
           ", p=" + format_number(kw.p_value, 3) + "\n";
    // Pairwise: the extremes (fastest vs slowest median).
    const auto mw = stats::mann_whitney_u(groups.front(), groups.back());
    out += "Mann-Whitney " + std::string(dataset::manufacturer_short_name(group_makers.front())) +
           " vs " + std::string(dataset::manufacturer_short_name(group_makers.back())) +
           ": p=" + format_number(mw.p_value, 3) +
           ", rank-biserial=" + format_number(mw.effect_size, 3) + "\n";
  }
  return out;
}

// §V-A4: reaction time vs cumulative miles, per manufacturer.
std::string render_correlations(const dataset::failure_database& db,
                                const std::vector<dataset::manufacturer>& makers) {
  std::string out = "Reaction time vs cumulative miles (paper: Waymo r=0.19, Benz r=0.11):\n";
  for (const auto& rc : core::build_reaction_correlations(db, makers)) {
    out += "  " + std::string(dataset::manufacturer_short_name(rc.maker)) +
           ": r=" + format_number(rc.result.r, 2) +
           " (p=" + format_number(rc.result.p_value, 2) + ")\n";
  }
  return out;
}

// Fig. 12: the relative-speed histogram behind the exponential fit.
std::string render_histograms(const dataset::failure_database& db) {
  const auto data = core::build_fig12(db);
  std::string out;
  if (!data.relative_speeds.empty()) {
    out += "Relative-speed histogram (mph):\n";
    out += stats::histogram::from_samples(data.relative_speeds, 8).render_ascii(40);
  }
  return out;
}

// Mercedes-Benz reaction times inside Fig. 11's (0, 300) s fit window.
std::vector<double> benz_reaction_times(const dataset::failure_database& db) {
  std::vector<double> xs;
  for (double t : dataset::database_view(db).reaction_times(dataset::manufacturer::mercedes_benz)) {
    if (t > 0 && t < 300) xs.push_back(t);
  }
  return xs;
}

}  // namespace

int main(int argc, char** argv) {
  const auto& s = bench::state();
  const auto& db = s.db();
  const auto& makers = s.analyzed();
  constexpr auto ms = benchmark::kMillisecond;

  std::string rendered;
  const auto experiment = [&](const std::string& id, const std::string& rows) {
    if (!rendered.empty()) rendered += "\n";
    rendered += bench::banner(id) + rows;
  };

  // Table I: fleet size, autonomous miles, disengagements and accidents
  // per manufacturer and DMV release.
  experiment("Table I (fleet summary)", core::render_table1(db));
  timed("BM_BuildTable1", [&] { return core::build_table1(db); });
  dataset::generator_config records_only;
  records_only.render_documents = false;
  timed("BM_GenerateCorpusRecordsOnly",
        [records_only] { return dataset::generate_corpus(records_only); })
      ->Unit(ms);

  // Fig. 4: distributions of per-car DPM across manufacturers.
  experiment("Fig. 4 (per-car DPM distributions)", core::render_fig4(db, makers));
  timed("BM_BuildFig4", [&] { return core::build_fig4(db, makers); });
  timed("BM_VehicleMonthAttribution", [&] { return dataset::database_view(db).vehicle_months(); })
      ->Unit(ms);

  // Fig. 5: cumulative disengagements vs cumulative miles (log-log) with a
  // linear-regression fit per manufacturer.
  experiment("Fig. 5 (cumulative disengagements vs miles)", core::render_fig5(db, makers));
  timed("BM_BuildFig5", [&] { return core::build_fig5(db, makers); });
  std::vector<double> log_xs, log_ys;
  for (int i = 1; i <= 200; ++i) {
    log_xs.push_back(i * 100.0);
    log_ys.push_back(3.0 * std::pow(i * 100.0, 0.7));
  }
  timed("BM_LogLogFit", [&] { return stats::fit_log_log(log_xs, log_ys); });

  // Table IV: disengagements per manufacturer by root failure category.
  experiment("Table IV (root-cause categories)", core::render_table4(db, makers));
  timed("BM_BuildTable4", [&] { return core::build_table4(db, makers); });
  const nlp::keyword_voting_classifier classifier(nlp::failure_dictionary::builtin());
  timed("BM_ClassifyOneDescription", [&] {
    return classifier.classify(
        "The AV didn't see the lead vehicle, driver safely disengaged and resumed manual "
        "control.");
  });
  timed("BM_LabelWholeCorpus", [&] {
    auto copy = db;
    return core::label_disengagements(copy, classifier);
  })->Unit(ms);

  // Fig. 6: fault-tag fractions per manufacturer.
  experiment("Fig. 6 (fault-tag fractions)", core::render_fig6(db, makers));
  timed("BM_BuildTagFractions", [&] { return core::build_tag_fractions(db, makers); });

  // Table V: disengagement modality (automatic / manual / planned).
  experiment("Table V (disengagement modality)", core::render_table5(db, makers));
  timed("BM_BuildTable5", [&] { return core::build_table5(db, makers); });

  // Fig. 7: time evolution (by calendar year) of per-car DPM distributions.
  experiment("Fig. 7 (DPM by calendar year)", core::render_fig7(db, makers));
  timed("BM_BuildFig7", [&] { return core::build_fig7(db, makers); });
  std::vector<double> box_xs;
  for (int i = 0; i < 1000; ++i) box_xs.push_back(std::sin(i) * std::sin(i));
  timed("BM_BoxSummary", [&] { return stats::summarize_box(box_xs); });

  // Fig. 8: Pearson correlation between log(DPM) and log(cumulative
  // miles), pooled per vehicle-month (paper: r = -0.87, p = 7e-56).
  experiment("Fig. 8 (pooled DPM/miles correlation)", core::render_fig8(db, makers));
  timed("BM_BuildFig8", [&] { return core::build_fig8(db, makers); });
  std::vector<double> pearson_xs, pearson_ys;
  for (int i = 0; i < 800; ++i) {
    pearson_xs.push_back(i);
    pearson_ys.push_back(-0.9 * i + (i % 7));
  }
  timed("BM_PearsonWithPValue", [&] { return stats::pearson(pearson_xs, pearson_ys); });

  // Fig. 9: monthly DPM vs cumulative miles per manufacturer, with
  // log-log regression fits.
  experiment("Fig. 9 (DPM vs cumulative miles)", core::render_fig9(db, makers));
  timed("BM_BuildFig9", [&] { return core::build_fig9(db, makers); });

  // Fig. 10: driver reaction-time distributions per manufacturer, plus the
  // reaction-time-vs-cumulative-miles correlations of §V-A4.
  experiment("Fig. 10 (reaction times)", core::render_fig10(db, makers) + "\n" +
                                             render_correlations(db, makers) + "\n" +
                                             render_distribution_tests(db, makers));
  timed("BM_BuildFig10", [&] { return core::build_fig10(db, makers); });
  timed("BM_ReactionCorrelations", [&] { return core::build_reaction_correlations(db, makers); });

  // Fig. 11: plain and exponentiated Weibull MLE fits of the reaction
  // times, with KS goodness of fit.
  experiment("Fig. 11 (Weibull reaction-time fits)", core::render_fig11(db, makers));
  const auto benz_rts = benz_reaction_times(db);
  timed("BM_WeibullMle", [&] { return stats::weibull_dist::fit(benz_rts); });
  timed("BM_ExpWeibullMle", [&] { return stats::exp_weibull_dist::fit(benz_rts); })->Unit(ms);

  // Table VI: accidents per manufacturer, fraction of the total, and
  // disengagements per accident (DPA).
  experiment("Table VI (accidents and DPA)", core::render_table6(db));
  timed("BM_BuildTable6", [&] { return core::build_table6(db); });

  // Table VII: median DPM, median APM, ratio to the human APM of 2e-6.
  experiment("Table VII (AVs vs human drivers)", core::render_table7(db, makers));
  timed("BM_BuildTable7", [&] { return core::build_table7(db, makers); });
  timed("BM_ComputeAllMetrics", [&] { return core::compute_all_metrics(db); })->Unit(ms);

  // Fig. 12: accident speed distributions (AV / other vehicle / relative)
  // with exponential fits.
  experiment("Fig. 12 (accident speeds)", core::render_fig12(db) + "\n" + render_histograms(db));
  timed("BM_BuildFig12", [&] { return core::build_fig12(db); });

  // Table VIII: accidents per mission (APMi) against commercial aviation
  // and surgical robots.
  experiment("Table VIII (AVs vs aviation & surgical robots)", core::render_table8(db));
  timed("BM_BuildTable8", [&] { return core::build_table8(db); });

  // The headline claims: every checkable number, paper vs measured, plus
  // the pipeline's operational statistics.
  experiment("Headline claims", core::render_headlines(db, makers) + "\n" +
                                    core::render_pipeline_stats(s.pipeline.stats) + "\n" +
                                    core::render_conclusions(db, makers));
  const auto& corpus = s.corpus;
  timed("BM_FullPipeline",
        [&] { return core::run_pipeline(corpus.documents, corpus.pristine_documents); })
      ->Unit(ms);
  core::pipeline_config parallel4;
  parallel4.parallelism = 4;
  timed("BM_FullPipelineParallel4", [&] {
    return core::run_pipeline(corpus.documents, corpus.pristine_documents, parallel4);
  })->Unit(ms);
  timed("BM_EvaluateHeadlines", [&] { return core::evaluate_headlines(db, makers); })->Unit(ms);

  // §V-C2: miles-to-disengagement as the cross-transportation reliability
  // metric, Kaplan-Meier over censored exposure; the MTBF ordering must
  // track Table VII's DPM ordering.
  experiment("SV-C2 proposed metric (miles to disengagement)",
             core::render_reliability_metrics(db));
  const auto waymo = dataset::manufacturer::waymo;
  timed("BM_ComputeSpells", [&] { return core::miles_to_disengagement_spells(db, waymo); })
      ->Unit(ms);
  const auto spells = core::miles_to_disengagement_spells(db, waymo);
  timed("BM_KaplanMeierFit", [&] { return stats::kaplan_meier(spells); });
  timed("BM_AllReliabilityMetrics", [&] { return core::compute_all_reliability_metrics(db); })
      ->Unit(ms);

  // §VI "not all miles are equivalent": disengagement shares by road type
  // and weather, and the perception-tag share under adverse conditions.
  experiment("Context breakdown (SVI threats to validity)", core::render_context_breakdown(db));
  timed("BM_BuildRoadMix", [&] { return core::build_road_mix(db); });
  timed("BM_BuildWeatherEnvironment", [&] { return core::build_weather_environment(db); });

  return bench::run_experiment("paper", rendered, argc, argv);
}
