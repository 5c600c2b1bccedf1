// Component micro-benchmarks: OCR corruption/recovery, lexicon lookup,
// per-format parsing, stemming, and distribution sampling — the pipeline's
// hot paths.
//
// Its perf record, BENCH_pipeline_perf.json under AVTK_BENCH_JSON_DIR,
// carries the Stage II lexicon lookup rates as `ocr`: the production delete
// index vs the test-only linear scan (tests/ocr/ocr_reference.h) over the
// same one-edit-damaged words, and their ratio `indexed_over_scan`. Its
// `scan` member is the Stage II fan-out of traced run_pipeline passes over
// the canonical corpus at parallelism 1 and 4: the `scan` span's wall, the
// OCR + parse time summed over documents, and their ratio, the effective
// parallelism. The scan figures are recorded, not gated: they depend on
// the runner's core count.
#include "bench/common.h"

#include <iostream>
#include <sstream>

#include "nlp/stemmer.h"
#include "nlp/tokenizer.h"
#include "ocr/engine.h"
#include "ocr/noise.h"
#include "ocr_reference.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "parse/disengagement_parser.h"
#include "parse/formats/common.h"
#include "stats/descriptive.h"
#include "util/rng.h"

namespace {

const std::string k_line =
    "1/4/16 -- 1:25 PM -- Leaf 1 (Alfa) -- Software module froze. As a result driver safely "
    "disengaged and resumed manual control. -- City Street -- Sunny/Dry -- Auto -- 1.10 s";

void BM_CorruptLine(benchmark::State& state) {
  avtk::rng gen(1);
  const auto profile = avtk::ocr::noise_profile::for_quality(avtk::ocr::scan_quality::fair);
  for (auto _ : state) {
    benchmark::DoNotOptimize(avtk::ocr::corrupt_line(k_line, profile, gen));
  }
}
BENCHMARK(BM_CorruptLine);

void BM_OcrRecoverLine(benchmark::State& state) {
  const avtk::ocr::mock_ocr_engine engine(avtk::ocr::lexicon::builtin());
  avtk::rng gen(2);
  const auto profile = avtk::ocr::noise_profile::for_quality(avtk::ocr::scan_quality::fair);
  const auto corrupted = avtk::ocr::corrupt_line(k_line, profile, gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.recognize_line(corrupted));
  }
}
BENCHMARK(BM_OcrRecoverLine);

const avtk::ocr::lexicon& builtin_lexicon() {
  static const auto shared = avtk::ocr::lexicon::builtin();
  return *shared;
}

// The lookup workload: every one-letter deletion and every one-letter
// substitution (by the next letter) of every builtin word, so the queries
// are the near misses post-correction exists for, and both outcomes of the
// uniqueness rule (snap, refuse) occur.
const std::vector<std::string>& damaged_words() {
  static const std::vector<std::string> queries = [] {
    std::vector<std::string> out;
    for (const auto& w : builtin_lexicon().words()) {
      for (std::size_t i = 0; i < w.size(); ++i) {
        out.push_back(w.substr(0, i) + w.substr(i + 1));
        std::string substituted = w;
        substituted[i] = substituted[i] == 'z' ? 'a' : static_cast<char>(substituted[i] + 1);
        out.push_back(std::move(substituted));
      }
    }
    return out;
  }();
  return queries;
}

std::string indexed_match(const std::string& word) {
  return builtin_lexicon().best_match(word);
}

std::string scan_match(const std::string& word) {
  return avtk::ocr::testing::reference_best_match(builtin_lexicon().words(), word);
}

void BM_LexiconBestMatch(benchmark::State& state, std::string (*match)(const std::string&)) {
  const auto& queries = damaged_words();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(match(queries[i++ % queries.size()]));
  }
}
BENCHMARK_CAPTURE(BM_LexiconBestMatch, indexed, &indexed_match);
BENCHMARK_CAPTURE(BM_LexiconBestMatch, scan, &scan_match);

// Seconds for `passes` passes of `match` over the workload, after one
// warm-up pass; the answers of the last pass go to `answers`.
double time_lookups(std::string (*match)(const std::string&), int passes,
                    std::vector<std::string>& answers) {
  for (const auto& q : damaged_words()) benchmark::DoNotOptimize(match(q));
  const avtk::obs::stopwatch watch;
  for (int pass = 0; pass < passes; ++pass) {
    answers.clear();
    for (const auto& q : damaged_words()) answers.push_back(match(q));
    benchmark::DoNotOptimize(answers.data());
  }
  return watch.elapsed_seconds();
}

// The Stage II fan-out at one parallelism: medians over traced passes.
struct scan_figures {
  double wall_ms = 0;  ///< the `scan` span
  double work_ms = 0;  ///< OCR + parse, summed over documents
  double effective_parallelism() const { return wall_ms > 0 ? work_ms / wall_ms : 0; }
};

scan_figures measure_scan(unsigned parallelism, int runs) {
  const auto& corpus = avtk::bench::state().corpus;
  std::vector<double> wall_ms;
  std::vector<double> work_ms;
  for (int r = 0; r < runs; ++r) {
    avtk::obs::trace trace;
    avtk::core::pipeline_config cfg;
    cfg.parallelism = parallelism;
    cfg.trace = &trace;
    const auto result =
        avtk::core::run_pipeline(corpus.documents, corpus.pristine_documents, cfg);
    for (const auto& span : trace.spans()) {
      if (span.name == "scan") wall_ms.push_back(static_cast<double>(span.duration_ns) / 1e6);
    }
    work_ms.push_back(
        (result.stats.stage_seconds("ocr") + result.stats.stage_seconds("parse")) * 1e3);
  }
  return {avtk::stats::median(wall_ms), avtk::stats::median(work_ms)};
}

void BM_ParseNissanLine(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(avtk::parse::formats::read_nissan_line(k_line));
  }
}
BENCHMARK(BM_ParseNissanLine);

void BM_ParseWholeWaymoReport(benchmark::State& state) {
  // Find the largest document in the corpus (Waymo 2017 mileage table).
  const auto& docs = avtk::bench::state().corpus.pristine_documents;
  const avtk::ocr::document* biggest = &docs.front();
  for (const auto& d : docs) {
    if (d.line_count() > biggest->line_count()) biggest = &d;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(avtk::parse::parse_disengagement_report(*biggest));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(biggest->line_count()));
}
BENCHMARK(BM_ParseWholeWaymoReport)->Unit(benchmark::kMillisecond);

void BM_StemWord(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(avtk::nlp::stem("disengagements"));
  }
}
BENCHMARK(BM_StemWord);

void BM_TokenizeLine(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(avtk::nlp::tokenize(k_line));
  }
}
BENCHMARK(BM_TokenizeLine);

void BM_ExpWeibullSample(benchmark::State& state) {
  avtk::rng gen(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.exponentiated_weibull(1.6, 0.85, 1.3));
  }
}
BENCHMARK(BM_ExpWeibullSample);

}  // namespace

int main(int argc, char** argv) {
  namespace json = avtk::obs::json;

  constexpr int k_passes = 3;
  std::vector<std::string> indexed_answers;
  std::vector<std::string> scan_answers;
  const double indexed_s = time_lookups(&indexed_match, k_passes, indexed_answers);
  const double scan_s = time_lookups(&scan_match, k_passes, scan_answers);
  if (indexed_answers != scan_answers) {
    std::cerr << "bench_pipeline_perf: the delete index and the linear scan disagree\n";
    return 1;
  }
  const double lookups = static_cast<double>(damaged_words().size()) * k_passes;
  const double indexed_ns = indexed_s * 1e9 / lookups;
  const double scan_ns = scan_s * 1e9 / lookups;
  const double speedup = indexed_s > 0 ? scan_s / indexed_s : 0;
  const auto index_bytes = builtin_lexicon().footprint_bytes();

  constexpr int k_scan_runs = 5;
  json::object scan{{"runs", json::value(static_cast<std::size_t>(k_scan_runs))}};
  std::ostringstream scan_rows;
  for (const unsigned parallelism : {1u, 4u}) {
    const auto f = measure_scan(parallelism, k_scan_runs);
    scan.emplace_back("p" + std::to_string(parallelism),
                      json::value(json::object{
                          {"scan_wall_ms", json::value(f.wall_ms)},
                          {"ocr_parse_ms", json::value(f.work_ms)},
                          {"effective_parallelism", json::value(f.effective_parallelism())},
                      }));
    scan_rows << "p" << parallelism << ": scan wall " << f.wall_ms << " ms, OCR + parse "
              << f.work_ms << " ms, effective parallelism " << f.effective_parallelism()
              << "\n";
  }

  std::ostringstream rows;
  rows << "lexicon lookup: delete index vs linear scan\n"
       << "workload: " << damaged_words().size() << " one-edit-damaged builtin words x "
       << k_passes << " passes\n"
       << "scan:    " << scan_ns << " ns/lookup\n"
       << "indexed: " << indexed_ns << " ns/lookup\n"
       << "indexed/scan: " << speedup << "x\n"
       << "builtin lexicon + index: " << index_bytes << " bytes\n"
       << "Stage II scan (traced run_pipeline, median of " << k_scan_runs << " passes)\n"
       << scan_rows.str();
  return avtk::bench::run_experiment(
      "pipeline_perf", rows.str(), argc, argv,
      {{"ocr", json::value(json::object{
                   {"workload_lookups", json::value(damaged_words().size())},
                   {"passes", json::value(static_cast<std::size_t>(k_passes))},
                   {"scan_ns_per_lookup", json::value(scan_ns)},
                   {"indexed_ns_per_lookup", json::value(indexed_ns)},
                   {"indexed_over_scan", json::value(speedup)},
                   {"lexicon_bytes", json::value(index_bytes)},
               })},
       {"scan", json::value(std::move(scan))}});
}
