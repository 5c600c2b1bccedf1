// Component micro-benchmarks: OCR corruption/recovery, lexicon lookup,
// per-format parsing, stemming, and distribution sampling — the pipeline's
// hot paths.
//
// Its perf record, BENCH_pipeline_perf.json under AVTK_BENCH_JSON_DIR,
// carries the Stage II lexicon lookup rates as `ocr`: the production delete
// index vs the test-only linear scan (tests/ocr/ocr_reference.h) over the
// same one-edit-damaged words, and their ratio `indexed_over_scan`. Its
// `scan` member is the per-document fan-out of traced run_pipeline passes
// over the canonical corpus at parallelism 1 and 4: the `scan` span's wall,
// the OCR + parse + Stage-III label time summed over documents, and their
// ratio, the effective parallelism. Its `parse` member times Stage II's line kernels over the
// canonical corpus's disengagement reports, in ns per line: the
// structure test over the pristine lines, and the report parser over the
// OCR-recovered text with and without the pristine fallback (whose mileage
// audit reads the pristine lines). The scan and parse figures are
// recorded, not gated: they depend on the runner.
#include "bench/common.h"

#include <algorithm>
#include <iostream>
#include <limits>
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
#include "parse/report_header.h"
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
  return std::string(builtin_lexicon().best_match(word));
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

// The scan fan-out at one parallelism: medians over traced passes.
struct scan_figures {
  double wall_ms = 0;  ///< the `scan` span
  double work_ms = 0;  ///< OCR + parse + label, summed over documents
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
    work_ms.push_back((result.stats.stage_seconds("ocr") + result.stats.stage_seconds("parse") +
                       result.stats.stage_seconds("classify.label")) *
                      1e3);
  }
  return {avtk::stats::median(wall_ms), avtk::stats::median(work_ms)};
}

// Stage II's line kernels over the corpus, best of `passes` timed passes.
struct parse_figures {
  std::size_t lines = 0;           ///< lines of the timed reports
  double structural_ns = 0;        ///< is_structural_line, per pristine line
  double parse_ns = 0;             ///< parse_disengagement_report, no fallback
  double parse_fallback_ns = 0;    ///< ... with the pristine fallback
};

parse_figures measure_parse(int passes) {
  const auto& corpus = avtk::bench::state().corpus;
  const avtk::ocr::mock_ocr_engine engine(avtk::ocr::lexicon::builtin());
  std::vector<avtk::ocr::document> recovered;
  std::vector<const avtk::ocr::document*> pristine;
  parse_figures f;
  for (std::size_t d = 0; d < corpus.documents.size(); ++d) {
    auto doc = corpus.documents[d];
    for (auto& page : doc.pages) {
      for (auto& line : page.lines) line = engine.recognize_line(line).text;
    }
    // Only reports whose recovered header identifies them: the parser
    // without the fallback refuses the others.
    const auto id = avtk::parse::identify_report(doc);
    if (id.kind != avtk::parse::report_kind::disengagement || !id.maker || !id.report_year) {
      continue;
    }
    f.lines += doc.line_count();
    recovered.push_back(std::move(doc));
    pristine.push_back(&corpus.pristine_documents[d]);
  }
  // Best of `passes` after one warm-up pass, in ns per line.
  const auto best_ns = [&](const auto& pass) {
    pass();
    double best = std::numeric_limits<double>::infinity();
    for (int p = 0; p < passes; ++p) {
      const avtk::obs::stopwatch watch;
      pass();
      best = std::min(best, watch.elapsed_seconds());
    }
    return best * 1e9 / static_cast<double>(f.lines);
  };
  f.structural_ns = best_ns([&] {
    for (const auto* doc : pristine) {
      for (const auto& page : doc->pages) {
        for (const auto& line : page.lines) {
          benchmark::DoNotOptimize(avtk::parse::formats::is_structural_line(line));
        }
      }
    }
  });
  for (const bool fallback : {false, true}) {
    (fallback ? f.parse_fallback_ns : f.parse_ns) = best_ns([&] {
      for (std::size_t d = 0; d < recovered.size(); ++d) {
        benchmark::DoNotOptimize(avtk::parse::parse_disengagement_report(
            recovered[d], fallback ? pristine[d] : nullptr));
      }
    });
  }
  return f;
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
                          {"work_ms", json::value(f.work_ms)},
                          {"effective_parallelism", json::value(f.effective_parallelism())},
                      }));
    scan_rows << "p" << parallelism << ": scan wall " << f.wall_ms << " ms, OCR + parse + label "
              << f.work_ms << " ms, effective parallelism " << f.effective_parallelism()
              << "\n";
  }

  constexpr int k_parse_passes = 7;
  const auto parse = measure_parse(k_parse_passes);

  std::ostringstream rows;
  rows << "lexicon lookup: delete index vs linear scan\n"
       << "workload: " << damaged_words().size() << " one-edit-damaged builtin words x "
       << k_passes << " passes\n"
       << "scan:    " << scan_ns << " ns/lookup\n"
       << "indexed: " << indexed_ns << " ns/lookup\n"
       << "indexed/scan: " << speedup << "x\n"
       << "builtin lexicon + index: " << index_bytes << " bytes\n"
       << "Scan fan-out (traced run_pipeline, median of " << k_scan_runs << " passes)\n"
       << scan_rows.str()
       << "Stage II line kernels over " << parse.lines << " report lines (best of "
       << k_parse_passes << " passes)\n"
       << "is_structural_line:                  " << parse.structural_ns << " ns/line\n"
       << "parse_disengagement_report:          " << parse.parse_ns << " ns/line\n"
       << "parse_disengagement_report+fallback: " << parse.parse_fallback_ns << " ns/line\n";
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
       {"scan", json::value(std::move(scan))},
       {"parse", json::value(json::object{
                     {"lines", json::value(parse.lines)},
                     {"passes", json::value(static_cast<std::size_t>(k_parse_passes))},
                     {"structural_ns_per_line", json::value(parse.structural_ns)},
                     {"parse_ns_per_line", json::value(parse.parse_ns)},
                     {"parse_with_fallback_ns_per_line", json::value(parse.parse_fallback_ns)},
                 })}});
}
