// Fig. 4: distributions of per-car DPM across manufacturers.
#include "bench/common.h"

namespace {

void BM_BuildFig4(benchmark::State& state) {
  const auto& s = avtk::bench::state();
  for (auto _ : state) {
    benchmark::DoNotOptimize(avtk::core::build_fig4(s.db(), s.analyzed()));
  }
}
BENCHMARK(BM_BuildFig4);

void BM_VehicleMonthAttribution(benchmark::State& state) {
  const avtk::dataset::database_view view(avtk::bench::state().db());
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.vehicle_months());
  }
}
BENCHMARK(BM_VehicleMonthAttribution)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto& s = avtk::bench::state();
  return avtk::bench::run_experiment("Fig. 4 (per-car DPM distributions)",
                                     avtk::core::render_fig4(s.db(), s.analyzed()), argc,
                                     argv);
}
