// fleet_monitor — a manufacturer's-eye view: simulate an AV testing fleet
// with the STPA fault-injection simulator, push the resulting records
// through the same Stage III/IV analysis as the DMV corpus, and watch the
// burn-in curve. Also replays the paper's two Section II case studies.
//
//   ./fleet_monitor [vehicles] [months]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/figures.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "nlp/classifier.h"
#include "sim/fleet.h"
#include "sim/scenario.h"
#include "sim/stpa.h"
#include "stats/regression.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace avtk;

  sim::fleet_config cfg;
  cfg.vehicles = argc > 1 ? std::atoi(argv[1]) : 12;
  cfg.months = argc > 2 ? std::atoi(argv[2]) : 24;
  cfg.miles_per_vehicle_month = 1200;
  cfg.seed = 20180625;

  std::printf("Simulating a fleet of %d AVs for %d months...\n\n", cfg.vehicles, cfg.months);
  auto result = sim::run_fleet(cfg);

  std::printf("Fleet totals: %.0f autonomous miles, %lld disengagements, %lld accidents, "
              "%lld hazards absorbed by the ADS\n",
              result.total_miles, result.disengagements, result.accidents, result.absorbed);
  std::printf("DPM %.4f, APM %.6f", result.dpm(), result.apm());
  if (result.accidents > 0) {
    std::printf(", disengagements per accident %.0f (paper corpus: ~127)",
                static_cast<double>(result.disengagements) /
                    static_cast<double>(result.accidents));
  }
  std::printf("\n\n");

  // Stage III on the simulated logs: does NLP recover the injected faults?
  const nlp::keyword_voting_classifier classifier(nlp::failure_dictionary::builtin());
  std::size_t agree = 0;
  std::size_t total = 0;
  for (const auto& d : result.database.disengagements()) {
    ++total;
    if (classifier.classify(d.description).tag == d.tag) ++agree;
  }
  if (total > 0) {
    std::printf("NLP tag recovery on simulated logs: %.1f%% of %zu events\n\n",
                100.0 * static_cast<double>(agree) / static_cast<double>(total), total);
  }

  // Burn-in curve: monthly DPM with a log-log fit (the paper's Fig. 9).
  const auto metrics = core::compute_metrics(result.database, cfg.maker);
  std::printf("Median per-car DPM: %s\n\n",
              metrics.median_dpm ? format_number(*metrics.median_dpm, 3).c_str() : "-");

  std::vector<double> cum_miles;
  std::vector<double> dpm;
  double cum = 0;
  text_table table({"Month", "Miles", "Disengagements", "DPM"});
  table.set_title("Monthly burn-in curve");
  for (const auto& cell : core::build_monthly_trend(result.database, cfg.maker)) {
    cum += cell.miles;
    if (cell.miles > 0 && cell.disengagements > 0) {
      cum_miles.push_back(cum);
      dpm.push_back(cell.dpm());
    }
    table.add_row({cell.month.to_string(), format_number(cell.miles, 5),
                   std::to_string(cell.disengagements), format_number(cell.dpm(), 3)});
  }
  std::cout << table.render();
  if (cum_miles.size() >= 2) {
    const auto fit = stats::fit_log_log(cum_miles, dpm);
    std::printf("log(DPM) vs log(cumulative miles) slope: %.3f (negative = improving)\n\n",
                fit.slope);
  }

  // STPA overlay: where in the Fig. 3 control structure did the hazards
  // originate, and which unsafe control actions do they correspond to?
  std::cout << sim::stpa::render_overlay(sim::stpa::overlay_events(result.events)) << "\n";
  const auto structure = sim::stpa::control_structure::autonomous_driving_system();
  std::printf("STPA model validated (%zu checks). UCAs caused by missed detections:\n",
              structure.validate());
  for (const auto* uca : structure.ucas_caused_by(sim::fault_kind::missed_detection)) {
    std::printf("  - %s (%s): %s\n", uca->action.c_str(),
                std::string(sim::stpa::uca_kind_name(uca->kind)).c_str(),
                uca->hazard.c_str());
  }
  std::puts("");

  std::puts("Replaying the paper's Section II case studies:\n");
  std::cout << sim::run_case_study_1().render() << "\n";
  std::cout << sim::run_case_study_2().render();
  return 0;
}
