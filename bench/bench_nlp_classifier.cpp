// Stage-III labeling throughput: the test-only naive per-phrase reference
// scan (tests/nlp/nlp_reference.h) vs the production Aho-Corasick
// classifier over the canonical pipeline's real disengagement
// descriptions — descriptions/sec, ns/description, and the
// automaton-over-naive speedup ratio.
//
// Its perf record, BENCH_nlp_classifier.json under AVTK_BENCH_JSON_DIR,
// carries the per-scorer labeling rates as `labeling`.
#include "bench/common.h"

#include <sstream>
#include <string_view>
#include <vector>

#include "nlp/classifier.h"
#include "nlp_reference.h"
#include "obs/clock.h"
#include "obs/json.h"

namespace {

using avtk::nlp::failure_dictionary;
using avtk::nlp::keyword_voting_classifier;
using avtk::nlp::testing::reference_classify;

// The labeling workload: every disengagement description the canonical
// pipeline run actually classified, in database order.
const std::vector<std::string_view>& workload() {
  static const std::vector<std::string_view> descriptions = [] {
    std::vector<std::string_view> out;
    const auto& db = avtk::bench::state().db();
    out.reserve(db.disengagements().size());
    for (const auto& d : db.disengagements()) out.push_back(d.description);
    return out;
  }();
  return descriptions;
}

struct scorer_stats {
  std::size_t descriptions = 0;
  double total_seconds = 0;

  double per_second() const {
    return total_seconds > 0 ? static_cast<double>(descriptions) / total_seconds : 0;
  }
  double ns_per_description() const {
    return descriptions > 0 ? total_seconds * 1e9 / static_cast<double>(descriptions) : 0;
  }
};

// Times `passes` labeling passes of `label_all` over the workload, after
// one warm-up pass (pages in the corpus, fills the per-thread token memo).
template <typename LabelAll>
scorer_stats measure(LabelAll label_all, int passes) {
  scorer_stats stats;
  benchmark::DoNotOptimize(label_all());
  for (int pass = 0; pass < passes; ++pass) {
    const avtk::obs::stopwatch watch;
    const auto verdicts = label_all();
    stats.total_seconds += watch.elapsed_seconds();
    stats.descriptions += verdicts.size();
    benchmark::DoNotOptimize(verdicts.data());
  }
  return stats;
}

std::vector<avtk::nlp::classification> reference_all(const failure_dictionary& dict) {
  std::vector<avtk::nlp::classification> out;
  out.reserve(workload().size());
  for (const auto text : workload()) out.push_back(reference_classify(dict, text));
  return out;
}

avtk::obs::json::value scorer_json(const scorer_stats& s) {
  namespace json = avtk::obs::json;
  return json::value(json::object{
      {"descriptions", json::value(s.descriptions)},
      {"total_seconds", json::value(s.total_seconds)},
      {"descriptions_per_second", json::value(s.per_second())},
      {"ns_per_description", json::value(s.ns_per_description())},
  });
}

void BM_ClassifyNaive(benchmark::State& state) {
  const auto dict = failure_dictionary::builtin();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference_classify(dict, workload()[i++ % workload().size()]).score);
  }
}
BENCHMARK(BM_ClassifyNaive);

void BM_ClassifyAutomaton(benchmark::State& state) {
  const keyword_voting_classifier cls(failure_dictionary::builtin());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cls.classify(workload()[i++ % workload().size()]).score);
  }
}
BENCHMARK(BM_ClassifyAutomaton);

void BM_AutomatonBuild(benchmark::State& state) {
  // Matcher construction cost (the pipeline's classify.build split): the
  // automaton must stay cheap enough to rebuild per run.
  for (auto _ : state) {
    const keyword_voting_classifier cls(failure_dictionary::builtin());
    benchmark::DoNotOptimize(&cls);
  }
}
BENCHMARK(BM_AutomatonBuild);

}  // namespace

int main(int argc, char** argv) {
  namespace json = avtk::obs::json;

  constexpr int k_passes = 5;
  const auto dict = failure_dictionary::builtin();
  const keyword_voting_classifier cls(dict);
  const auto naive = measure([&] { return reference_all(dict); }, k_passes);
  const auto automaton = measure([&] { return cls.classify_all(workload()); }, k_passes);
  const double speedup =
      naive.per_second() > 0 ? automaton.per_second() / naive.per_second() : 0;

  std::ostringstream rows;
  rows << "naive vs automaton labeling throughput\n"
       << "workload: " << workload().size() << " descriptions x " << k_passes << " passes\n"
       << "naive:     " << naive.per_second() << " desc/s (" << naive.ns_per_description()
       << " ns/desc)\n"
       << "automaton: " << automaton.per_second() << " desc/s ("
       << automaton.ns_per_description() << " ns/desc)\n"
       << "automaton/naive: " << speedup << "x\n";
  return avtk::bench::run_experiment(
      "nlp_classifier", rows.str(), argc, argv,
      {{"labeling", json::value(json::object{
                        {"workload_descriptions", json::value(workload().size())},
                        {"passes", json::value(static_cast<std::size_t>(k_passes))},
                        {"naive", scorer_json(naive)},
                        {"automaton", scorer_json(automaton)},
                        {"automaton_over_naive", json::value(speedup)},
                    })}});
}
