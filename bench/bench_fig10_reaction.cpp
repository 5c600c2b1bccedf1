// Fig. 10: driver reaction-time distributions per manufacturer, plus the
// reaction-time-vs-cumulative-miles correlations of §V-A4.
#include "bench/common.h"

#include "stats/nonparametric.h"
#include "util/table.h"

namespace {

void BM_BuildFig10(benchmark::State& state) {
  const auto& s = avtk::bench::state();
  for (auto _ : state) {
    benchmark::DoNotOptimize(avtk::core::build_fig10(s.db(), s.analyzed()));
  }
}
BENCHMARK(BM_BuildFig10);

void BM_ReactionCorrelations(benchmark::State& state) {
  const auto& s = avtk::bench::state();
  for (auto _ : state) {
    benchmark::DoNotOptimize(avtk::core::build_reaction_correlations(s.db(), s.analyzed()));
  }
}
BENCHMARK(BM_ReactionCorrelations);

std::string render_distribution_tests() {
  const auto& s = avtk::bench::state();
  // Do the per-manufacturer reaction-time distributions actually differ?
  std::vector<std::vector<double>> groups;
  std::vector<avtk::dataset::manufacturer> group_makers;
  for (const auto maker : s.analyzed()) {
    auto rts = avtk::dataset::database_view(s.db()).reaction_times(maker);
    std::erase_if(rts, [](double t) { return !(t > 0) || t > 300.0; });
    if (rts.size() >= 30) {
      groups.push_back(std::move(rts));
      group_makers.push_back(maker);
    }
  }
  std::string out;
  if (groups.size() >= 2) {
    const auto kw = avtk::stats::kruskal_wallis(groups);
    out += "Kruskal-Wallis across " + std::to_string(kw.groups) +
           " manufacturers: H=" + avtk::format_number(kw.h, 4) +
           ", p=" + avtk::format_number(kw.p_value, 3) + "\n";
    // Pairwise: the extremes (fastest vs slowest median).
    for (std::size_t i = 0; i + 1 < groups.size() && i < 1; ++i) {
      const auto mw = avtk::stats::mann_whitney_u(groups.front(), groups.back());
      out += "Mann-Whitney " +
             std::string(avtk::dataset::manufacturer_short_name(group_makers.front())) +
             " vs " +
             std::string(avtk::dataset::manufacturer_short_name(group_makers.back())) +
             ": p=" + avtk::format_number(mw.p_value, 3) +
             ", rank-biserial=" + avtk::format_number(mw.effect_size, 3) + "\n";
    }
  }
  return out;
}

std::string render_correlations() {
  const auto& s = avtk::bench::state();
  std::string out = "Reaction time vs cumulative miles (paper: Waymo r=0.19, Benz r=0.11):\n";
  for (const auto& rc :
       avtk::core::build_reaction_correlations(s.db(), s.analyzed())) {
    out += "  " + std::string(avtk::dataset::manufacturer_short_name(rc.maker)) +
           ": r=" + avtk::format_number(rc.result.r, 2) +
           " (p=" + avtk::format_number(rc.result.p_value, 2) + ")\n";
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto& s = avtk::bench::state();
  return avtk::bench::run_experiment(
      "Fig. 10 (reaction times)",
      avtk::core::render_fig10(s.db(), s.analyzed()) + "\n" + render_correlations() + "\n" +
          render_distribution_tests(),
      argc, argv);
}
