// Fig. 11: Weibull-family fits of the reaction-time distributions (the
// paper fits an Exponential-Weibull; we report both the plain and the
// exponentiated Weibull MLE with KS goodness of fit).
#include "bench/common.h"

#include "stats/dist/exp_weibull.h"
#include "stats/dist/weibull.h"

namespace {

void BM_WeibullMle(benchmark::State& state) {
  const auto rts = avtk::dataset::database_view(avtk::bench::state().db())
                       .reaction_times(avtk::dataset::manufacturer::mercedes_benz);
  std::vector<double> xs;
  for (double t : rts) {
    if (t > 0 && t < 300) xs.push_back(t);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(avtk::stats::weibull_dist::fit(xs));
  }
}
BENCHMARK(BM_WeibullMle);

void BM_ExpWeibullMle(benchmark::State& state) {
  const auto rts = avtk::dataset::database_view(avtk::bench::state().db())
                       .reaction_times(avtk::dataset::manufacturer::mercedes_benz);
  std::vector<double> xs;
  for (double t : rts) {
    if (t > 0 && t < 300) xs.push_back(t);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(avtk::stats::exp_weibull_dist::fit(xs));
  }
}
BENCHMARK(BM_ExpWeibullMle)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto& s = avtk::bench::state();
  return avtk::bench::run_experiment("Fig. 11 (Weibull reaction-time fits)",
                                     avtk::core::render_fig11(s.db(), s.analyzed()), argc,
                                     argv);
}
