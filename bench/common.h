// bench/common.h
//
// Shared state for the per-table/per-figure bench binaries: every binary
// regenerates the corpus, runs the pipeline once, prints its experiment's
// paper-vs-measured rows, then times the underlying computation with
// google-benchmark.
//
// When the AVTK_BENCH_JSON_DIR environment variable is set, every bench
// additionally drops a machine-readable BENCH_<experiment>.json perf record
// there (schema avtk.bench.v1: end-to-end pipeline wall-clock, per-stage
// timings, and the obs metric snapshot) so CI can track the performance
// trajectory across PRs from artifacts instead of log scraping.
#pragma once

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "core/analysis.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "dataset/generator.h"

namespace avtk::bench {

struct shared_state {
  dataset::generated_corpus corpus;
  core::pipeline_result pipeline;
  double generate_seconds = 0;  ///< corpus synthesis wall-clock
  double pipeline_seconds = 0;  ///< run_pipeline wall-clock

  const dataset::failure_database& db() const { return pipeline.database; }
  const std::vector<dataset::manufacturer>& analyzed() const {
    return pipeline.stats.analyzed;
  }
};

/// Lazily builds (and caches) the canonical corpus + pipeline run.
const shared_state& state();

/// The avtk.bench.v1 perf record for this process (JSON text).
std::string bench_record_json(const std::string& experiment_id);

/// Writes BENCH_<experiment>.json under `dir`; returns the path ("" on
/// failure).
std::string write_bench_record(const std::string& experiment_id, const std::string& dir);

/// Prints the experiment banner and the rendered reproduction rows, then
/// hands control to google-benchmark; finally emits the perf record when
/// AVTK_BENCH_JSON_DIR is set. Returns the process exit code.
int run_experiment(const std::string& experiment_id, const std::string& rendered,
                   int argc, char** argv);

}  // namespace avtk::bench
