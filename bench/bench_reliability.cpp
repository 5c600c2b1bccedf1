// Recurrent-events reliability engine: MCF estimation (with seeded
// bootstrap bands) and NHPP trend fits over the canonical pipeline
// database, benched against the existing Weibull reaction-time fit path
// (the `fit` query's core::build_fig11) as the established baseline.
//
// Its perf record, BENCH_reliability.json under AVTK_BENCH_JSON_DIR,
// carries as `reliability` the estimator timings plus the statistical
// ground-truth checks CI gates on: a synthetic homogeneous-Poisson fleet
// whose fitted power-law shape must come back ~1, and the real-corpus
// NHPP fits whose optimized likelihoods must not fall below the HPP
// baseline.
#include "bench/common.h"

#include <cmath>
#include <sstream>
#include <vector>

#include "obs/clock.h"
#include "obs/json.h"
#include "reliability/events.h"
#include "reliability/mcf.h"
#include "reliability/nhpp.h"
#include "util/rng.h"

namespace {

namespace reliability = avtk::reliability;

const std::vector<reliability::maker_processes>& processes() {
  static const auto p = reliability::extract_processes(avtk::bench::state().db());
  return p;
}

// The largest fleet by per-VIN event count: the heaviest MCF input.
const reliability::maker_processes& largest_fleet() {
  const auto& all = processes();
  const reliability::maker_processes* best = &all.front();
  for (const auto& mp : all) {
    if (mp.vehicle_events() > best->vehicle_events()) best = &mp;
  }
  return *best;
}

// A synthetic homogeneous-Poisson fleet with a known rate: conditional on
// the Poisson count, HPP event positions are iid uniform on (0, T].
std::vector<reliability::event_process> synthetic_hpp_fleet(double rate, double exposure,
                                                            int units, std::uint64_t seed) {
  avtk::rng gen(seed);
  std::vector<reliability::event_process> fleet;
  fleet.reserve(static_cast<std::size_t>(units));
  for (int i = 0; i < units; ++i) {
    reliability::event_process p;
    p.unit_id = "synthetic-" + std::to_string(i);
    p.exposure = exposure;
    const auto n = gen.poisson(rate * exposure);
    for (std::int64_t j = 0; j < n; ++j) p.events.push_back(gen.uniform(0.0, exposure));
    std::sort(p.events.begin(), p.events.end());
    fleet.push_back(std::move(p));
  }
  return fleet;
}

void BM_ExtractProcesses(benchmark::State& state) {
  const auto& db = avtk::bench::state().db();
  for (auto _ : state) {
    benchmark::DoNotOptimize(reliability::extract_processes(db));
  }
}
BENCHMARK(BM_ExtractProcesses)->Unit(benchmark::kMillisecond);

void BM_EstimateMcfWithBands(benchmark::State& state) {
  const auto& mp = largest_fleet();
  reliability::mcf_options options;
  options.max_points = 200;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reliability::estimate_mcf(mp.vehicles, options));
  }
}
BENCHMARK(BM_EstimateMcfWithBands)->Unit(benchmark::kMillisecond);

void BM_FitNhppTrend(benchmark::State& state) {
  const auto& mp = largest_fleet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(reliability::fit_trend(std::span(&mp.fleet, 1)));
  }
}
BENCHMARK(BM_FitNhppTrend)->Unit(benchmark::kMillisecond);

void BM_WeibullFitBaseline(benchmark::State& state) {
  // The pre-existing parametric fit path (the `fit` query) as the yardstick
  // the new estimators are compared against.
  const auto& s = avtk::bench::state();
  for (auto _ : state) {
    benchmark::DoNotOptimize(avtk::core::build_fig11(s.db(), s.analyzed(), 30, 300.0));
  }
}
BENCHMARK(BM_WeibullFitBaseline)->Unit(benchmark::kMillisecond);

// Median-of-N wall-clock for one invocation of `fn`.
template <typename Fn>
double median_seconds(int repeats, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    const avtk::obs::stopwatch watch;
    fn();
    times.push_back(watch.elapsed_seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  namespace json = avtk::obs::json;

  const auto& all = processes();
  const auto& heavy = largest_fleet();

  reliability::mcf_options mcf_options;
  mcf_options.max_points = 200;
  const auto mcf = reliability::estimate_mcf(heavy.vehicles, mcf_options);
  const auto trend = reliability::fit_trend(std::span(&heavy.fleet, 1));

  const double mcf_seconds = median_seconds(
      5, [&] { benchmark::DoNotOptimize(reliability::estimate_mcf(heavy.vehicles, mcf_options)); });
  const double nhpp_seconds = median_seconds(
      5, [&] { benchmark::DoNotOptimize(reliability::fit_trend(std::span(&heavy.fleet, 1))); });
  const auto& s = avtk::bench::state();
  const double weibull_seconds = median_seconds(
      5, [&] { benchmark::DoNotOptimize(avtk::core::build_fig11(s.db(), s.analyzed(), 30, 300.0)); });

  // Ground-truth recovery: a homogeneous fleet must fit shape ~ 1.
  const auto hpp_fleet = synthetic_hpp_fleet(0.02, 20000.0, 8, 12345);
  const auto hpp_trend = reliability::fit_trend(hpp_fleet);

  std::ostringstream rows;
  rows << "MCF + NHPP trend engine\n"
       << "fleets: " << all.size() << " makers; heaviest "
       << avtk::dataset::manufacturer_id(heavy.maker) << " (" << heavy.vehicles.size()
       << " vehicles, " << heavy.vehicle_events() << " events)\n"
       << "mcf (bands, 200 replicates): " << mcf_seconds * 1e3 << " ms; "
       << mcf.points.size() << " points\n"
       << "nhpp (3 fits + laplace): " << nhpp_seconds * 1e3 << " ms; preferred "
       << trend.preferred() << "\n"
       << "weibull fit baseline: " << weibull_seconds * 1e3 << " ms\n"
       << "synthetic hpp shape: " << hpp_trend.power_law.shape << " (true 1.0)\n";

  json::array nhpp_rows;
  for (const auto& mp : all) {
    const auto a = reliability::fit_trend(std::span(&mp.fleet, 1));
    nhpp_rows.emplace_back(json::object{
        {"maker", json::value(std::string(avtk::dataset::manufacturer_id(mp.maker)))},
        {"events", json::value(a.events)},
        {"exposure_miles", json::value(a.exposure)},
        {"hpp_log_likelihood", json::value(a.hpp.log_likelihood)},
        {"power_law_log_likelihood", json::value(a.power_law.log_likelihood)},
        {"power_law_shape", json::value(a.power_law.shape)},
        {"power_law_converged", json::value(a.power_law.converged)},
        {"log_linear_log_likelihood", json::value(a.log_linear.log_likelihood)},
        {"preferred", json::value(std::string(a.preferred()))},
    });
  }
  return avtk::bench::run_experiment(
      "reliability", rows.str(), argc, argv,
      {{"reliability",
        json::value(json::object{
            {"makers", json::value(all.size())},
            {"mcf", json::value(json::object{
                        {"maker",
                         json::value(std::string(avtk::dataset::manufacturer_id(heavy.maker)))},
                        {"units", json::value(mcf.units)},
                        {"events", json::value(mcf.total_events)},
                        {"points", json::value(mcf.points.size())},
                        {"seconds", json::value(mcf_seconds)},
                    })},
            {"nhpp", json::value(json::object{
                         {"seconds", json::value(nhpp_seconds)},
                         {"rows", json::value(std::move(nhpp_rows))},
                     })},
            {"weibull_fit_baseline_seconds", json::value(weibull_seconds)},
            {"synthetic_hpp",
             json::value(json::object{
                 {"true_shape", json::value(1.0)},
                 {"true_rate", json::value(0.02)},
                 {"events", json::value(hpp_trend.events)},
                 {"fitted_shape", json::value(hpp_trend.power_law.shape)},
                 {"shape_abs_error", json::value(std::fabs(hpp_trend.power_law.shape - 1.0))},
                 {"converged", json::value(hpp_trend.power_law.converged)},
                 {"hpp_log_likelihood", json::value(hpp_trend.hpp.log_likelihood)},
                 {"power_law_log_likelihood", json::value(hpp_trend.power_law.log_likelihood)},
             })},
        })}});
}
