// avtk — command-line driver for the toolkit. usage() below is the one
// description of the subcommands and their flags (`avtk help` prints it).
//
// Numeric flags parse STRICTLY (util/cli.h): the whole value must be a
// number of the advertised shape, so `--vehicles banana` or `--months -3`
// is a usage error (exit 2), never a silent zero-vehicle run. Seeds are
// unsigned 64-bit end to end.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/context.h"
#include "core/exposure.h"
#include "core/figure_export.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "dataset/csv_io.h"
#include "dataset/generator.h"
#include "inject/corruptor.h"
#include "nlp/classifier.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "sim/fleet.h"
#include "sim/stpa.h"
#include "soak/harness.h"
#include "util/cli.h"
#include "util/strings.h"

namespace {

using namespace avtk;
using cli::arg_list;

int usage() {
  std::puts(
      "avtk — AV failure-analysis toolkit (reproduction of Banerjee et al., DSN 2018)\n"
      "\n"
      "  avtk generate --out DIR [--seed N] [--quality clean|good|fair|poor]\n"
      "  avtk run [--seed N] [--quality Q] [--csv DIR] [--figures DIR] [--full]\n"
      "           [--parallel [N]] [--trace-json PATH] [--metrics-json PATH]\n"
      "           [--on-error fail_fast|skip|quarantine] [--quarantine-json PATH]\n"
      "           [--inject-seed N] [--inject-fraction F] [--inject-faults K,K,...]\n"
      "           [--inject-manifest PATH] [--drop-docs I,J,...]\n"
      "      --parallel without a value (or with 0) uses every hardware thread\n"
      "      for the per-document OCR + parse stage and the Stage-III labeling\n"
      "      pass.\n"
      "      --on-error picks the per-document fault policy; quarantine\n"
      "      surfaces refused documents in an avtk.quarantine.v1 report. The\n"
      "      --inject-* flags corrupt a seeded fraction of the corpus before\n"
      "      the run (chaos testing); --drop-docs removes the listed document\n"
      "      indices outright.\n"
      "  avtk inject [--seed N] [--quality Q] [--inject-seed N] [--inject-fraction F]\n"
      "              [--inject-faults K,K,...] [--out DIR] [--manifest PATH]\n"
      "      Generate the corpus, corrupt a seeded fraction of it (guaranteed\n"
      "      detectably corrupt), optionally write the damaged corpus and the\n"
      "      avtk.inject.v1 manifest.\n"
      "  avtk simulate [--vehicles N] [--months M] [--driverless] [--seed N]\n"
      "                [--trace-json PATH]\n"
      "  avtk serve [--seed N] [--quality Q] [--threads N] [--cache-capacity N]\n"
      "             [--input PATH] [--metrics-json PATH]\n"
      "             [--on-error fail_fast|skip|quarantine] [--shards N]\n"
      "      Answer line-delimited JSON analytics queries (--input file or stdin)\n"
      "      from a worker pool with a sharded, memoized result cache. A\n"
      "      request whose top-level member is \"ingest\" (raw report text, or\n"
      "      {\"text\":..., \"title\":..., \"pristine\":...}) is scanned, labeled\n"
      "      and appended live; refused documents answer with a structured\n"
      "      reject envelope. --on-error picks what a reject does to the loop\n"
      "      (default quarantine: keep serving; fail_fast aborts, exit 1).\n"
      "      --shards partitions the snapshot store by manufacturer into N\n"
      "      independent shards with per-shard ingest commits (default 1;\n"
      "      payloads are byte-identical at any N).\n"
      "  avtk soak [--vehicles N] [--months M] [--seed N]\n"
      "            [--chaos-fraction F] [--chaos-seed N]\n"
      "            [--query-threads N] [--queries N] [--duty-cycle F]\n"
      "            [--threads N] [--cache-capacity N] [--json PATH]\n"
      "            [--shards N]\n"
      "      End-to-end soak: simulate a fleet, render its filings month by\n"
      "      month, corrupt a seeded fraction (the chaos leg), and stream\n"
      "      them into a live serve loop at the given ingest duty cycle while\n"
      "      N client threads run a weighted mix of every query kind. Checks\n"
      "      exact quarantine accounting (every fault rejected with its\n"
      "      manifest code, zero clean rejects) and snapshot invariants\n"
      "      (epoch-per-accepted-doc, byte-stable warm payloads). Writes the\n"
      "      avtk.bench.v1 record to --json or $AVTK_BENCH_JSON_DIR. Exit 1\n"
      "      when any invariant is violated.\n"
      "  avtk query JSON [--seed N] [--quality Q] [--shards N]\n"
      "      One-shot analytics query, e.g. '{\"query\": \"metrics\"}', or a\n"
      "      one-shot ingest, e.g. '{\"ingest\": {\"text\": \"...\"}}'. Kinds:\n"
      "      metrics tags categories modality trend fit compare mcf nhpp;\n"
      "      filters: maker, year, tag, category, min_samples, plus\n"
      "      replicates/seed (mcf bands) and horizon_miles (nhpp).\n"
      "  avtk classify TEXT...\n"
      "  avtk help");
  return 2;
}

// ---- strict flag helpers -------------------------------------------------
// Absent flag: *out untouched, returns true. Present flag: the value must
// parse in full or the helper prints a usage error and returns false (the
// caller exits 2). This is the fix for the atoi-era behavior where
// `--vehicles banana` silently simulated zero vehicles.

bool flag_positive_int(arg_list& args, const char* flag, const char* cmd, int* out) {
  const auto value = args.maybe_value_of(flag);
  if (!value) return true;
  const auto parsed = cli::parse_positive_int(*value);
  if (!parsed) {
    std::fprintf(stderr, "%s: %s expects a positive integer, got '%s'\n", cmd, flag,
                 value->c_str());
    return false;
  }
  *out = *parsed;
  return true;
}

bool flag_uint(arg_list& args, const char* flag, const char* cmd, unsigned* out) {
  const auto value = args.maybe_value_of(flag);
  if (!value) return true;
  const auto parsed = cli::parse_uint(*value);
  if (!parsed) {
    std::fprintf(stderr, "%s: %s expects an unsigned integer, got '%s'\n", cmd, flag,
                 value->c_str());
    return false;
  }
  *out = *parsed;
  return true;
}

bool flag_u64(arg_list& args, const char* flag, const char* cmd, std::uint64_t* out) {
  const auto value = args.maybe_value_of(flag);
  if (!value) return true;
  const auto parsed = cli::parse_u64(*value);
  if (!parsed) {
    std::fprintf(stderr, "%s: %s expects an unsigned 64-bit integer, got '%s'\n", cmd, flag,
                 value->c_str());
    return false;
  }
  *out = *parsed;
  return true;
}

bool flag_positive_size(arg_list& args, const char* flag, const char* cmd, std::size_t* out) {
  const auto value = args.maybe_value_of(flag);
  if (!value) return true;
  const auto parsed = cli::parse_u64(*value);
  if (!parsed || *parsed == 0) {
    std::fprintf(stderr, "%s: %s expects a positive integer, got '%s'\n", cmd, flag,
                 value->c_str());
    return false;
  }
  *out = static_cast<std::size_t>(*parsed);
  return true;
}

bool flag_fraction(arg_list& args, const char* flag, const char* cmd, double* out) {
  const auto value = args.maybe_value_of(flag);
  if (!value) return true;
  const auto parsed = cli::parse_fraction(*value);
  if (!parsed) {
    std::fprintf(stderr, "%s: %s expects a number in [0, 1], got '%s'\n", cmd, flag,
                 value->c_str());
    return false;
  }
  *out = *parsed;
  return true;
}

// A flag that takes a string value (a path, a name, a list) must get one:
// given last, or followed by another --flag, it is a usage error rather
// than a silently empty value.
bool flag_string(arg_list& args, const char* flag, const char* cmd, std::string* out) {
  const auto value = args.maybe_value_of(flag);
  if (!value) return true;
  if (value->empty() || value->starts_with("--")) {
    std::fprintf(stderr, "%s: %s expects a value\n", cmd, flag);
    return false;
  }
  *out = *value;
  return true;
}

// --shards N: snapshot-store shards (serve/store.h), default 1; payloads
// are byte-identical at any N.
bool flag_shards(arg_list& args, const char* cmd, std::size_t* out) {
  return flag_positive_size(args, "--shards", cmd, out);
}

// Call once every flag a command knows has been read: a flag it does not
// know is a usage error, not silently ignored.
bool no_unknown_flag(const arg_list& args, const char* cmd) {
  const auto flag = args.unknown_flag();
  if (flag) std::fprintf(stderr, "%s: unknown flag '%s'\n", cmd, flag->c_str());
  return !flag;
}

// --------------------------------------------------------------------------

std::optional<ocr::scan_quality> quality_from(const std::string& name) {
  if (name == "clean") return ocr::scan_quality::clean;
  if (name == "good") return ocr::scan_quality::good;
  if (name == "fair") return ocr::scan_quality::fair;
  if (name == "poor") return ocr::scan_quality::poor;
  return std::nullopt;
}

std::optional<dataset::generator_config> make_generator_config(arg_list& args, const char* cmd) {
  dataset::generator_config cfg;
  std::string name = "fair";
  if (!flag_u64(args, "--seed", cmd, &cfg.seed) ||
      !flag_string(args, "--quality", cmd, &name)) {
    return std::nullopt;
  }
  const auto quality = quality_from(name);
  if (!quality) {
    std::fprintf(stderr, "%s: unknown --quality '%s' (clean, good, fair, poor)\n", cmd,
                 name.c_str());
    return std::nullopt;
  }
  cfg.quality = *quality;
  cfg.corrupt_documents = cfg.quality != ocr::scan_quality::clean;
  return cfg;
}

// Parses a comma-separated fault-kind list ("garble_header,ocr_noise").
// Returns nullopt (and prints to stderr) on an unknown kind.
std::optional<std::vector<inject::fault_kind>> parse_fault_kinds(const std::string& spec) {
  std::vector<inject::fault_kind> kinds;
  if (spec.empty()) return kinds;
  for (const auto& name : str::split(spec, ',')) {
    const auto kind = inject::fault_kind_from_name(str::trim(name));
    if (!kind) {
      std::fprintf(stderr, "unknown fault kind '%s' (known:", std::string(str::trim(name)).c_str());
      for (const auto k : inject::all_fault_kinds()) {
        std::fprintf(stderr, " %s", std::string(inject::fault_kind_name(k)).c_str());
      }
      std::fputs(")\n", stderr);
      return std::nullopt;
    }
    kinds.push_back(*kind);
  }
  return kinds;
}

// Parses a comma-separated index list ("3,17,41") into a sorted set;
// nullopt (with a usage error) on any non-numeric entry.
std::optional<std::set<std::size_t>> parse_index_list(const std::string& spec, const char* flag,
                                                      const char* cmd) {
  std::set<std::size_t> out;
  for (const auto& field : str::split(spec, ',')) {
    const auto trimmed = str::trim(field);
    if (trimmed.empty()) continue;
    const auto parsed = cli::parse_u64(trimmed);
    if (!parsed) {
      std::fprintf(stderr, "%s: %s expects comma-separated indices, got '%s'\n", cmd, flag,
                   std::string(trimmed).c_str());
      return std::nullopt;
    }
    out.insert(static_cast<std::size_t>(*parsed));
  }
  return out;
}

// Shared by run and inject: builds the injection config from flags. The
// boolean says whether any injection flag was given at all.
std::pair<inject::injection_config, bool> make_injection_config(arg_list& args, const char* cmd,
                                                                bool* ok) {
  inject::injection_config cfg;
  bool requested = false;
  *ok = true;
  if (args.has("--inject-seed") || args.has("--inject-fraction")) requested = true;
  if (!flag_u64(args, "--inject-seed", cmd, &cfg.seed) ||
      !flag_fraction(args, "--inject-fraction", cmd, &cfg.fraction)) {
    *ok = false;
    return {cfg, requested};
  }
  std::string faults;
  if (!flag_string(args, "--inject-faults", cmd, &faults)) {
    *ok = false;
    return {cfg, requested};
  }
  if (!faults.empty()) {
    const auto kinds = parse_fault_kinds(faults);
    if (!kinds) {
      *ok = false;
      return {cfg, requested};
    }
    cfg.kinds = *kinds;
    requested = true;
  }
  return {cfg, requested};
}

// Renders a corpus (delivered + pristine) to out_dir/scanned and
// out_dir/pristine, one doc_NNN.txt per document.
std::size_t write_corpus(const dataset::generated_corpus& corpus, const std::string& out_dir) {
  namespace fs = std::filesystem;
  fs::create_directories(fs::path(out_dir) / "scanned");
  fs::create_directories(fs::path(out_dir) / "pristine");
  std::size_t n = 0;
  for (std::size_t i = 0; i < corpus.documents.size(); ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "doc_%03zu.txt", i);
    for (const auto& [sub, doc] :
         {std::pair{"scanned", &corpus.documents[i]},
          std::pair{"pristine", &corpus.pristine_documents[i]}}) {
      std::ofstream out(fs::path(out_dir) / sub / name, std::ios::binary);
      out << doc->full_text();
      ++n;
    }
  }
  return n;
}

int cmd_generate(arg_list args) {
  std::string out_dir;
  if (!flag_string(args, "--out", "generate", &out_dir)) return 2;
  if (out_dir.empty()) {
    std::fputs("generate: --out DIR is required\n", stderr);
    return 2;
  }
  const auto cfg = make_generator_config(args, "generate");
  if (!cfg || !no_unknown_flag(args, "generate")) return 2;
  const auto corpus = dataset::generate_corpus(*cfg);
  const auto n = write_corpus(corpus, out_dir);
  std::printf("wrote %zu files under %s (seed %llu, %zu documents)\n", n, out_dir.c_str(),
              static_cast<unsigned long long>(cfg->seed), corpus.documents.size());
  return 0;
}

int cmd_run(arg_list args) {
  const auto cfg = make_generator_config(args, "run");
  if (!cfg) return 2;
  std::string trace_path, metrics_path, on_error, quarantine_path, manifest_path, drop_spec;
  std::string csv_dir, fig_dir;
  if (!flag_string(args, "--trace-json", "run", &trace_path) ||
      !flag_string(args, "--metrics-json", "run", &metrics_path) ||
      !flag_string(args, "--on-error", "run", &on_error) ||
      !flag_string(args, "--quarantine-json", "run", &quarantine_path) ||
      !flag_string(args, "--inject-manifest", "run", &manifest_path) ||
      !flag_string(args, "--drop-docs", "run", &drop_spec) ||
      !flag_string(args, "--csv", "run", &csv_dir) ||
      !flag_string(args, "--figures", "run", &fig_dir)) {
    return 2;
  }

  core::pipeline_config pcfg;
  if (!on_error.empty()) {
    const auto policy = core::error_policy_from_name(on_error);
    if (!policy) {
      std::fprintf(stderr, "run: unknown --on-error policy '%s' (fail_fast, skip, quarantine)\n",
                   on_error.c_str());
      return 2;
    }
    pcfg.on_error = *policy;
  }
  bool inject_flags_ok = true;
  const auto [inject_cfg, inject_requested] = make_injection_config(args, "run", &inject_flags_ok);
  if (!inject_flags_ok) return 2;
  std::optional<std::set<std::size_t>> drop;
  if (!drop_spec.empty()) {
    drop = parse_index_list(drop_spec, "--drop-docs", "run");
    if (!drop) return 2;
  }
  if (const auto parallel = args.value_if_present("--parallel")) {
    // Bare --parallel (or an explicit 0) means "use every hardware thread".
    unsigned n = 0;
    if (!parallel->empty()) {
      const auto parsed = cli::parse_uint(*parallel);
      if (!parsed) {
        std::fprintf(stderr, "run: --parallel expects an unsigned integer, got '%s'\n",
                     parallel->c_str());
        return 2;
      }
      n = *parsed;
    }
    pcfg.parallelism = n != 0 ? n : std::max(std::thread::hardware_concurrency(), 1u);
  }
  const bool full = args.has("--full");
  if (!no_unknown_flag(args, "run")) return 2;

  std::printf("generating corpus (seed %llu) and running the pipeline...\n",
              static_cast<unsigned long long>(cfg->seed));
  auto corpus = dataset::generate_corpus(*cfg);

  if (inject_requested) {
    const auto report =
        inject::inject_faults(corpus.documents, corpus.pristine_documents, inject_cfg);
    std::printf("injected faults into %zu of %zu documents (inject seed %llu)\n",
                report.faults.size(), report.documents_in,
                static_cast<unsigned long long>(report.seed));
    if (!manifest_path.empty()) {
      if (!obs::write_text_file(manifest_path, inject::injection_to_json(report))) {
        std::fprintf(stderr, "run: failed to write inject manifest to %s\n",
                     manifest_path.c_str());
        return 1;
      }
      std::printf("inject manifest written to %s\n", manifest_path.c_str());
    }
  }

  // --drop-docs: remove the listed document indices entirely before the
  // pipeline sees them. This is the control arm of the chaos determinism
  // gate: a quarantine run that refuses set S must produce byte-identical
  // analysis output to a clean run that never had S.
  if (drop) {
    std::vector<ocr::document> kept_docs;
    std::vector<ocr::document> kept_pristine;
    for (std::size_t i = 0; i < corpus.documents.size(); ++i) {
      if (drop->contains(i)) continue;
      kept_docs.push_back(std::move(corpus.documents[i]));
      if (i < corpus.pristine_documents.size()) {
        kept_pristine.push_back(std::move(corpus.pristine_documents[i]));
      }
    }
    std::printf("dropped %zu of %zu documents before the pipeline\n",
                corpus.documents.size() - kept_docs.size(), corpus.documents.size());
    corpus.documents = std::move(kept_docs);
    corpus.pristine_documents = std::move(kept_pristine);
  }

  // The trace epoch starts after corpus generation so `total_ns` is the
  // end-to-end pipeline + analysis wall-clock, not the data synthesis.
  obs::trace trace;
  if (!trace_path.empty()) pcfg.trace = &trace;
  const auto result = core::run_pipeline(corpus.documents, corpus.pristine_documents, pcfg);

  // Stage IV analysis/rendering shares the pipeline's trace timeline.
  obs::scoped_span analysis_span(pcfg.trace, "analysis");
  std::string rendered;
  if (full) {
    rendered += core::render_full_report(result.database, result.stats.analyzed);
    rendered += "\n" + core::render_reliability_metrics(result.database) + "\n";
    rendered += core::render_context_breakdown(result.database);
  } else {
    rendered = core::render_headlines(result.database, result.stats.analyzed);
  }
  analysis_span.close();
  std::cout << core::render_pipeline_stats(result.stats) << "\n";
  std::cout << rendered;

  if (result.stats.documents_quarantined > 0) {
    std::printf("\n%zu document(s) quarantined under policy '%s'\n",
                result.stats.documents_quarantined,
                std::string(core::error_policy_name(pcfg.on_error)).c_str());
    for (const auto& q : result.quarantined) {
      std::printf("  [%zu] %s (%s): %s\n", q.index, q.title.c_str(),
                  std::string(error_code_name(q.code)).c_str(), q.message.c_str());
    }
  }
  if (!quarantine_path.empty()) {
    if (!obs::write_text_file(quarantine_path,
                              core::quarantine_to_json(result, pcfg.on_error))) {
      std::fprintf(stderr, "run: failed to write quarantine report to %s\n",
                   quarantine_path.c_str());
      return 1;
    }
    std::printf("quarantine report written to %s\n", quarantine_path.c_str());
  }

  if (!trace_path.empty()) {
    if (!obs::write_text_file(trace_path, obs::trace_to_json(trace))) {
      std::fprintf(stderr, "run: failed to write trace to %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("\nstage trace (%zu spans) written to %s\n", trace.size(), trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    if (!obs::write_text_file(metrics_path,
                              obs::snapshot_to_json(obs::metrics().snapshot()))) {
      std::fprintf(stderr, "run: failed to write metrics to %s\n", metrics_path.c_str());
      return 1;
    }
    std::printf("metric snapshot written to %s\n", metrics_path.c_str());
  }

  if (!csv_dir.empty()) {
    namespace fs = std::filesystem;
    fs::create_directories(csv_dir);
    const auto csv = dataset::export_csv(result.database);
    for (const auto& [name, contents] :
         std::map<std::string, const std::string*>{{"disengagements.csv", &csv.disengagements},
                                                   {"mileage.csv", &csv.mileage},
                                                   {"accidents.csv", &csv.accidents}}) {
      std::ofstream out(fs::path(csv_dir) / name, std::ios::binary);
      out << *contents;
    }
    std::printf("\nCSV database written under %s\n", csv_dir.c_str());
  }

  if (!fig_dir.empty()) {
    const auto bundle =
        core::export_all_figures(result.database, result.stats.analyzed);
    const auto written = core::write_bundle(bundle, fig_dir);
    std::printf("%zu figure files (gnuplot + data) written under %s\n", written,
                fig_dir.c_str());
  }
  return 0;
}

int cmd_inject(arg_list args) {
  const auto cfg = make_generator_config(args, "inject");
  if (!cfg) return 2;
  bool inject_flags_ok = true;
  auto [inject_cfg, inject_requested] =
      make_injection_config(args, "inject", &inject_flags_ok);
  if (!inject_flags_ok) return 2;
  (void)inject_requested;  // inject always injects; the flags just tune it
  std::string out_dir, manifest_path;
  if (!flag_string(args, "--out", "inject", &out_dir) ||
      !flag_string(args, "--manifest", "inject", &manifest_path) ||
      !no_unknown_flag(args, "inject")) {
    return 2;
  }

  std::printf("generating corpus (seed %llu) and injecting faults (inject seed %llu, fraction %g)...\n",
              static_cast<unsigned long long>(cfg->seed),
              static_cast<unsigned long long>(inject_cfg.seed), inject_cfg.fraction);
  auto corpus = dataset::generate_corpus(*cfg);
  const auto report =
      inject::inject_faults(corpus.documents, corpus.pristine_documents, inject_cfg);

  std::printf("corrupted %zu of %zu documents:\n", report.faults.size(), report.documents_in);
  for (const auto& f : report.faults) {
    std::printf("  [%zu] %s: %s", f.index, f.title.c_str(),
                std::string(inject::fault_kind_name(f.requested)).c_str());
    if (f.applied != f.requested) {
      std::printf(" -> escalated to %s", std::string(inject::fault_kind_name(f.applied)).c_str());
    }
    std::printf(" (probe: %s)\n", std::string(error_code_name(f.code)).c_str());
  }

  if (!out_dir.empty()) {
    const auto n = write_corpus(corpus, out_dir);
    std::printf("wrote %zu corrupted corpus files under %s\n", n, out_dir.c_str());
  }
  if (!manifest_path.empty()) {
    if (!obs::write_text_file(manifest_path, inject::injection_to_json(report))) {
      std::fprintf(stderr, "inject: failed to write manifest to %s\n", manifest_path.c_str());
      return 1;
    }
    std::printf("inject manifest (avtk.inject.v1) written to %s\n", manifest_path.c_str());
  }
  return 0;
}

int cmd_simulate(arg_list args) {
  sim::fleet_config cfg;
  cfg.vehicles = 12;
  cfg.months = 24;
  if (!flag_positive_int(args, "--vehicles", "simulate", &cfg.vehicles) ||
      !flag_positive_int(args, "--months", "simulate", &cfg.months) ||
      !flag_u64(args, "--seed", "simulate", &cfg.seed)) {
    return 2;
  }
  cfg.vehicle.driverless = args.has("--driverless");
  cfg.miles_per_vehicle_month = 1200;
  std::string trace_path;
  if (!flag_string(args, "--trace-json", "simulate", &trace_path) ||
      !no_unknown_flag(args, "simulate")) {
    return 2;
  }
  obs::trace trace;
  if (!trace_path.empty()) cfg.trace = &trace;

  std::printf("simulating %d vehicles x %d months%s...\n", cfg.vehicles, cfg.months,
              cfg.vehicle.driverless ? " (driverless / L4-5 mode)" : "");
  const auto result = sim::run_fleet(cfg);
  std::printf("miles %.0f, disengagements %lld, accidents %lld, absorbed %lld\n",
              result.total_miles, result.disengagements, result.accidents, result.absorbed);
  std::printf("DPM %.4g, APM %.4g\n\n", result.dpm(), result.apm());
  std::cout << sim::stpa::render_overlay(sim::stpa::overlay_events(result.events));
  if (!trace_path.empty()) {
    if (!obs::write_text_file(trace_path, obs::trace_to_json(trace))) {
      std::fprintf(stderr, "simulate: failed to write trace to %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("fleet trace (%zu spans) written to %s\n", trace.size(), trace_path.c_str());
  }
  return 0;
}

int cmd_soak(arg_list args) {
  soak::workload_config wcfg;
  wcfg.fleet.vehicles = 8;
  wcfg.fleet.months = 12;
  wcfg.fleet.miles_per_vehicle_month = 1200;
  wcfg.chaos_fraction = 0.15;
  soak::soak_options opts;
  unsigned query_threads = opts.query_threads;
  std::string json_path;
  if (!flag_positive_int(args, "--vehicles", "soak", &wcfg.fleet.vehicles) ||
      !flag_positive_int(args, "--months", "soak", &wcfg.fleet.months) ||
      !flag_u64(args, "--seed", "soak", &wcfg.fleet.seed) ||
      !flag_fraction(args, "--chaos-fraction", "soak", &wcfg.chaos_fraction) ||
      !flag_u64(args, "--chaos-seed", "soak", &wcfg.chaos_seed) ||
      !flag_uint(args, "--query-threads", "soak", &query_threads) ||
      !flag_positive_int(args, "--queries", "soak", &opts.queries_per_thread) ||
      !flag_fraction(args, "--duty-cycle", "soak", &opts.duty_cycle) ||
      !flag_uint(args, "--threads", "soak", &opts.engine_threads) ||
      !flag_positive_size(args, "--cache-capacity", "soak", &opts.cache_capacity) ||
      !flag_shards(args, "soak", &opts.shards) ||
      !flag_string(args, "--json", "soak", &json_path) || !no_unknown_flag(args, "soak")) {
    return 2;
  }
  if (query_threads < 1 || !(opts.duty_cycle > 0.0)) {
    std::fputs("soak: --query-threads must be >= 1 and --duty-cycle in (0, 1]\n", stderr);
    return 2;
  }
  opts.query_threads = query_threads;
  // The fleet span must stay inside the DMV reporting periods the report
  // writers can render (2014-09 .. 2016-11); starting at 2015-01 that
  // bounds the span at 23 months.
  if (wcfg.fleet.months > 23) {
    std::fputs("soak: --months must be <= 23 (fleet span must fit the 2014-09..2016-11 "
               "reporting periods)\n",
               stderr);
    return 2;
  }

  std::printf("soak: simulating %d vehicles x %d months and rendering monthly filings...\n",
              wcfg.fleet.vehicles, wcfg.fleet.months);
  const auto workload = soak::build_workload(wcfg);
  std::printf("soak: %zu documents (%zu corrupted), duty cycle %.2f, %u query threads...\n",
              workload.documents.size(), workload.corrupted_documents, opts.duty_cycle,
              opts.query_threads);
  const auto report = soak::run_soak(workload, opts);
  std::cout << soak::render_soak_summary(workload, report);

  if (json_path.empty()) {
    if (const char* dir = std::getenv("AVTK_BENCH_JSON_DIR"); dir != nullptr && *dir != '\0') {
      json_path = std::string(dir) + "/BENCH_soak.json";
    }
  }
  if (!json_path.empty()) {
    const auto record = soak::soak_record_json(workload, opts, report);
    if (!obs::write_text_file(json_path, record.dump(2) + "\n")) {
      std::fprintf(stderr, "soak: failed to write perf record to %s\n", json_path.c_str());
      return 1;
    }
    std::printf("perf record written to %s\n", json_path.c_str());
  }
  return report.ok() ? 0 : 1;
}

// Shared by serve and query: generate the corpus, run the pipeline, hand
// the consolidated database to a query engine. Progress goes to stderr so
// stdout stays a pure response stream.
serve::query_engine make_engine(const dataset::generator_config& gen_cfg,
                                serve::engine_config cfg) {
  std::fprintf(stderr, "serve: generating corpus (seed %llu) and running the pipeline...\n",
               static_cast<unsigned long long>(gen_cfg.seed));
  const auto corpus = dataset::generate_corpus(gen_cfg);
  auto result = core::run_pipeline(corpus.documents, corpus.pristine_documents);
  const dataset::database_view view(result.database);
  std::fprintf(stderr, "serve: database ready (%lld disengagements, %lld accidents, %.0f miles)\n",
               view.total_disengagements(), view.total_accidents(), view.total_miles());
  return serve::query_engine(std::move(result.database), cfg);
}

int cmd_serve(arg_list args) {
  serve::engine_config cfg;
  std::string metrics_path, input_path, on_error;
  if (!flag_uint(args, "--threads", "serve", &cfg.threads) ||
      !flag_positive_size(args, "--cache-capacity", "serve", &cfg.cache_capacity) ||
      !flag_shards(args, "serve", &cfg.shards) ||
      !flag_string(args, "--metrics-json", "serve", &metrics_path) ||
      !flag_string(args, "--input", "serve", &input_path) ||
      !flag_string(args, "--on-error", "serve", &on_error)) {
    return 2;
  }
  serve::serve_loop_options options;
  if (!on_error.empty()) {
    const auto policy = ingest::error_policy_from_name(on_error);
    if (!policy) {
      std::fprintf(stderr,
                   "serve: unknown --on-error policy '%s' (fail_fast, skip, quarantine)\n",
                   on_error.c_str());
      return 2;
    }
    options.on_ingest_error = *policy;
  }

  const auto gen_cfg = make_generator_config(args, "serve");
  if (!gen_cfg || !no_unknown_flag(args, "serve")) return 2;
  auto engine = make_engine(*gen_cfg, cfg);
  std::fprintf(stderr, "serve: %u worker threads, cache capacity %zu; reading %s\n",
               engine.threads(), cfg.cache_capacity,
               input_path.empty() ? "stdin" : input_path.c_str());

  serve::serve_loop_stats stats;
  if (input_path.empty()) {
    stats = serve::run_serve_loop(engine, std::cin, std::cout, options);
  } else {
    std::ifstream in(input_path);
    if (!in) {
      std::fprintf(stderr, "serve: cannot open %s\n", input_path.c_str());
      return 2;
    }
    stats = serve::run_serve_loop(engine, in, std::cout, options);
  }
  // The sharded layout reports the composite version vector: the epoch sum
  // (comparable to the K = 1 epoch) plus the per-shard epochs.
  std::string epoch_suffix;
  if (engine.shards() > 1) {
    epoch_suffix = " [";
    const auto epochs = engine.epochs();
    for (std::size_t i = 0; i < epochs.size(); ++i) {
      if (i > 0) epoch_suffix += ' ';
      epoch_suffix += std::to_string(epochs[i]);
    }
    epoch_suffix += ']';
  }
  std::fprintf(stderr,
               "serve: %zu requests, %zu errors (%zu parse, %zu execution), %zu cache hits, "
               "%zu ingests (%zu rejected, %zu records), cache size %zu, snapshot epoch %llu%s\n",
               stats.requests, stats.errors, stats.parse_errors, stats.execution_errors,
               stats.cache_hits, stats.ingests, stats.ingest_rejected, stats.ingest_records,
               engine.cache_size(), static_cast<unsigned long long>(engine.epoch()),
               epoch_suffix.c_str());
  if (stats.aborted) {
    std::fprintf(stderr, "serve: aborted on rejected ingest (--on-error fail_fast)\n");
  }

  if (!metrics_path.empty()) {
    if (!obs::write_text_file(metrics_path,
                              obs::snapshot_to_json(obs::metrics().snapshot()))) {
      std::fprintf(stderr, "serve: failed to write metrics to %s\n", metrics_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "serve: metric snapshot written to %s\n", metrics_path.c_str());
  }
  // A completed loop is a successful serve: bad requests were answered on
  // the wire with {"ok":false,"code":...} envelopes, not a server failure.
  // An aborted loop (fail_fast reject) is the one exception.
  return stats.aborted ? 1 : 0;
}

int cmd_query(arg_list args) {
  serve::engine_config cfg;
  cfg.threads = 1;  // one-shot: no pool needed
  if (!flag_shards(args, "query", &cfg.shards)) {
    return 2;
  }
  const auto gen_cfg = make_generator_config(args, "query");
  if (!gen_cfg || !no_unknown_flag(args, "query")) return 2;
  auto engine = make_engine(*gen_cfg, cfg);
  const auto words = args.positional();
  if (words.empty()) {
    std::fputs("query: no request given, e.g. avtk query '{\"query\": \"metrics\"}'\n", stderr);
    return 2;
  }
  std::string request;
  for (const auto& w : words) {
    if (!request.empty()) request += ' ';
    request += w;
  }
  const auto response = serve::handle_request_line(engine, request);
  std::cout << response << "\n";
  // Mirror the wire-level ok flag in the exit code for scripting.
  return response.find("\"ok\":true") != std::string::npos ? 0 : 1;
}

int cmd_classify(arg_list args) {
  const auto words = args.positional();
  if (words.empty()) {
    std::fputs("classify: no text given\n", stderr);
    return 2;
  }
  std::string text;
  for (const auto& w : words) {
    if (!text.empty()) text += ' ';
    text += w;
  }
  const nlp::keyword_voting_classifier cls(nlp::failure_dictionary::builtin());
  const auto verdict = cls.classify(text);
  std::printf("text:       %s\n", text.c_str());
  std::printf("tag:        %s\n", std::string(nlp::tag_name(verdict.tag)).c_str());
  std::printf("category:   %s\n", std::string(nlp::category_name(verdict.category)).c_str());
  std::printf("score:      %.1f (runner-up %.1f, confidence %.2f)\n", verdict.score,
              verdict.runner_up, verdict.confidence);
  for (const auto& phrase : verdict.matched_phrases) {
    std::printf("matched:    %s\n", phrase.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "generate") return cmd_generate(arg_list(argc, argv, 2));
    if (command == "run") return cmd_run(arg_list(argc, argv, 2));
    if (command == "inject") return cmd_inject(arg_list(argc, argv, 2));
    if (command == "simulate") return cmd_simulate(arg_list(argc, argv, 2));
    if (command == "serve") return cmd_serve(arg_list(argc, argv, 2));
    if (command == "soak") return cmd_soak(arg_list(argc, argv, 2));
    if (command == "query") return cmd_query(arg_list(argc, argv, 2));
    if (command == "classify") return cmd_classify(arg_list(argc, argv, 2));
    if (command == "help" || command == "--help" || command == "-h") {
      usage();
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "avtk %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "avtk: unknown command '%s'\n", command.c_str());
  return usage();
}
