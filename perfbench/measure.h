// perfbench/measure.h
//
// The untraced end-to-end runs (measure) and the traced per-layer runs
// (trace_layers), plus the pieces both share: set-up, engine construction,
// one pass through run_serve_loop, and the correctness checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "dataset/database.h"
#include "dataset/generator.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "wire.h"
#include "workloads.h"

namespace avbench {

struct metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct run_result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::vector<metric> metrics;      ///< the metrics the result line carries
  std::vector<metric> info;         ///< printed only

  void fail(std::string why);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Generated corpus plus the Stage I-IV database the serve workloads load.
struct corpus_state {
  avtk::dataset::generated_corpus corpus;
  avtk::dataset::failure_database db;
  std::vector<avtk::dataset::manufacturer> analyzed;
  double generate_s = 0;
  double pipeline_s = 0;
};
corpus_state build_corpus_state();

/// Serve workloads' engine: engine_config{threads}, defaults otherwise,
/// with the first epoch's query index already built.
std::unique_ptr<avtk::serve::query_engine> make_engine(const avtk::dataset::failure_database& db,
                                                       unsigned threads = 2,
                                                       avtk::obs::trace* trace = nullptr);

/// One pass of `lines[0, limit)` through `loop` (which reads requests from
/// its istream and writes responses to its ostream); `due_ns` null selects
/// the closed loop.
pass_result drive(const line_stream& lines, const std::vector<std::int64_t>* due_ns,
                  std::size_t limit,
                  const std::function<void(std::istream&, std::ostream&)>& loop);

/// drive() through serve::run_serve_loop on `engine`.
pass_result run_pass(avtk::serve::query_engine& engine, const line_stream& lines,
                     const std::vector<std::int64_t>* due_ns, std::size_t limit);

/// Open-loop latency of lines [0, limit) from the moment the loop could
/// first have written each response (ms). run_serve_loop writes a query's
/// response only once `window` lines are in flight, a filing drains the
/// window, or input ends; so response i can leave no earlier than the
/// arrival (paced_source::available_ns) of the line window - 1 ahead, of
/// the first filing before that, or of the last line. Responses leave in
/// order, so neither can it leave before response i - 1. Latency from the
/// later of the two is the program's time beyond the batching floor its
/// window sets, and beyond the generator's batching of due lines: the
/// loop's work on the releasing line and on response i itself.
/// `filing_of_line` (optional) marks filing lines with an index >= 0.
std::vector<double> program_latency_ms(const pass_result& p, std::size_t limit,
                                       std::size_t window,
                                       const std::vector<long>* filing_of_line = nullptr);

/// A closed pass over a live stream, cut at each filing's response (s per
/// segment). A filing drains the in-flight window and is answered before
/// the loop reads on, so the segments do not overlap: each holds the
/// queries after the previous filing, then the filing itself; the last
/// one ends at the stream's last response.
std::vector<double> filing_segments_s(const pass_result& p,
                                      const std::vector<long>& filing_of_line);

/// Expected response of every line, from a separate single-thread engine
/// answering them synchronously.
struct expectation {
  std::uint64_t hash = 0;
  bool ok = true;
  std::string code;
};
expectation oracle_answer(avtk::serve::query_engine& oracle, std::string_view line);

/// Checks one pass: one response per line, in order, echoing its id, each
/// byte-identical (id aside) to `expected[line]`.
void check_pass(const pass_result& pass, std::size_t limit,
                const std::vector<expectation>& expected, run_result& out);

/// Fingerprint of the database's CSV export.
std::uint64_t database_digest(const avtk::dataset::failure_database& db);

/// Peak resident set of this process since the last reset_peak_rss(), MiB.
/// reset_peak_rss() returns freed heap to the OS and restarts the kernel's
/// high-water mark (VmHWM) from the live set, so a peak read after set-up
/// covers the workload alone. Without /proc the peak is getrusage's, for
/// the whole process.
void reset_peak_rss();
double peak_rss_mib();

run_result measure(workload w, std::uint64_t seed, double seconds);
run_result trace_layers(workload w, std::uint64_t seed, double seconds);

}  // namespace avbench
