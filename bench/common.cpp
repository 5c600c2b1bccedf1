#include "bench/common.h"

#include <cstdlib>

#include "obs/clock.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace avtk::bench {

namespace {

// "Fig. 4 (per-car DPM distributions)" -> "fig_4_per_car_dpm_distributions"
std::string slugify(const std::string& experiment_id) {
  std::string out;
  bool pending_sep = false;
  for (const char c : experiment_id) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      if (pending_sep && !out.empty()) out += '_';
      pending_sep = false;
      out += c;
    } else if (c >= 'A' && c <= 'Z') {
      if (pending_sep && !out.empty()) out += '_';
      pending_sep = false;
      out += static_cast<char>(c - 'A' + 'a');
    } else {
      pending_sep = true;
    }
  }
  return out.empty() ? "experiment" : out;
}

// The avtk.bench.v1 perf record for this process (JSON text).
std::string bench_record_json(const std::string& experiment_id, obs::json::object extra) {
  const auto& s = state();
  namespace json = obs::json;

  json::object stages;
  for (const auto& t : s.pipeline.stats.stage_timings) {
    stages.emplace_back(t.stage, json::value(t.seconds));
  }
  json::object record{
      {"schema", json::value("avtk.bench.v1")},
      {"experiment", json::value(experiment_id)},
      {"pipeline",
       json::value(json::object{
           {"documents_in", json::value(s.pipeline.stats.documents_in)},
           {"disengagements", json::value(s.pipeline.stats.disengagements)},
           {"accidents", json::value(s.pipeline.stats.accidents)},
           {"unknown_tags", json::value(s.pipeline.stats.unknown_tags)},
           {"generate_seconds", json::value(s.generate_seconds)},
           {"total_seconds", json::value(s.pipeline_seconds)},
           {"stage_seconds", json::value(std::move(stages))},
       })},
  };
  for (auto& member : extra) record.push_back(std::move(member));
  record.emplace_back("metrics", obs::snapshot_to_json_value(obs::metrics().snapshot()));
  return json::value(std::move(record)).dump(2) + "\n";
}

}  // namespace

const shared_state& state() {
  static const shared_state s = [] {
    shared_state out;
    dataset::generator_config cfg;  // defaults: scan noise on, fair quality
    const obs::stopwatch generate_watch;
    out.corpus = dataset::generate_corpus(cfg);
    out.generate_seconds = generate_watch.elapsed_seconds();
    const obs::stopwatch pipeline_watch;
    out.pipeline = core::run_pipeline(out.corpus.documents, out.corpus.pristine_documents);
    out.pipeline_seconds = pipeline_watch.elapsed_seconds();
    return out;
  }();
  return s;
}

std::string banner(const std::string& experiment_id) {
  return "==== " + experiment_id + " ====\n";
}

int run_experiment(const std::string& experiment_id, const std::string& rendered, int argc,
                   char** argv, obs::json::object extra) {
  std::cout << banner(experiment_id) << rendered << "\n";
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();

  const char* dir = std::getenv("AVTK_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return 0;
  const auto path = std::string(dir) + "/BENCH_" + slugify(experiment_id) + ".json";
  if (!obs::write_text_file(path, bench_record_json(experiment_id, std::move(extra)))) {
    std::cerr << "bench: failed to write perf record under " << dir << "\n";
    return 1;
  }
  std::cout << "perf record written to " << path << "\n";
  return 0;
}

}  // namespace avtk::bench
