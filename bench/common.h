// bench/common.h
//
// Shared state and driver for the bench binaries: the canonical corpus and
// its pipeline run (built once per process), and run_experiment, which
// prints an experiment's paper-vs-measured rows and then times the
// underlying computation with google-benchmark.
//
// When the AVTK_BENCH_JSON_DIR environment variable is set, run_experiment
// additionally drops a machine-readable BENCH_<experiment>.json perf record
// there (schema avtk.bench.v1: end-to-end pipeline wall-clock, per-stage
// timings, the bench's own members, and the obs metric snapshot) so CI can
// track the performance trajectory across PRs from artifacts instead of
// log scraping.
#pragma once

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "core/analysis.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "dataset/generator.h"
#include "obs/json.h"

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

/// "==== <experiment> ====\n": the line each experiment's rows open with.
std::string banner(const std::string& experiment_id);

/// Prints the experiment banner and the rendered reproduction rows, then
/// hands control to google-benchmark; finally, when AVTK_BENCH_JSON_DIR is
/// set, writes the perf record with `extra` as top-level members between
/// the pipeline block and the metric snapshot. Returns the process exit
/// code.
int run_experiment(const std::string& experiment_id, const std::string& rendered, int argc,
                   char** argv, obs::json::object extra = {});

}  // namespace avtk::bench
