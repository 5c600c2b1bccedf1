// avtk::serve filtered cold queries: a cold indexed engine (snapshot-pinned
// posting-list selections) against the test-only naive reference (copy the
// filtered database, render), with p50/p99 per-query latency and a
// byte-for-byte payload cross-check on every query.
//
// Commit scaling: the per-record cost of a snapshot commit plus its index
// extension on a store seeded with 8x the corpus, over the same on 1x. A
// commit copies chunk pointers and at most each domain's tail chunk, and an
// index extension appends only the new records' postings, so the ratio
// stays near 1; a commit or index build that walks every record makes it
// near 8.
//
// The end-to-end wire path, warm hits and live ingest are perfbench's
// (perfbench/README.md); these splits are the ones it does not measure.
// The record — BENCH_serve_throughput.json under AVTK_BENCH_JSON_DIR —
// carries `serve.filtered`, which .github/workflows/check_query_index.py
// gates, and `serve.commit_scaling`, which the CI bench-smoke step gates.
//
// Run: AVTK_BENCH_JSON_DIR=DIR ./build/bench/bench_serve_throughput
#include "bench/common.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "nlp/ontology.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "obs/latency.h"
#include "serve/engine.h"
#include "serve/index.h"
#include "serve/store.h"
#include "serve_reference.h"

namespace {

using avtk::serve::engine_config;
using avtk::serve::query;
using avtk::serve::query_engine;
using avtk::serve::query_kind;

// Filtered slicing mix for the reference-vs-indexed comparison: every
// query here restricts at least one domain, so the naive reference
// materializes a filtered database copy per query while the engine
// resolves the same filters to posting-list selections over the pinned
// snapshot. Counting builders only (tags/categories/modality): trend and
// metrics recompute the vehicle-month attribution, a builder cost
// identical under either that would swamp the execution-path difference
// this split is meant to measure.
std::vector<query> build_filtered_workload() {
  const auto& s = avtk::bench::state();
  std::vector<query> workload;
  const std::vector<query_kind> kinds = {
      query_kind::tags,
      query_kind::categories,
      query_kind::modality,
  };
  const std::vector<int> years = {2015, 2016};
  const std::vector<avtk::nlp::fault_tag> tags = {
      avtk::nlp::fault_tag::planner,
      avtk::nlp::fault_tag::software,
      avtk::nlp::fault_tag::environment,
  };
  for (const auto kind : kinds) {
    query base;
    base.kind = kind;
    for (const auto maker : s.analyzed()) {
      query q = base;
      q.maker = maker;
      workload.push_back(q);
      for (const auto year : years) {
        q.year = year;
        workload.push_back(q);
      }
    }
    for (const auto year : years) {
      query q = base;
      q.year = year;
      workload.push_back(q);
    }
    for (const auto tag : tags) {
      query q = base;
      q.tag = tag;
      workload.push_back(q);
    }
    {
      query q = base;
      q.category = avtk::nlp::failure_category::ml_design;
      workload.push_back(q);
    }
  }
  return workload;
}

query_engine make_engine() {
  engine_config cfg;
  cfg.threads = 2;
  return query_engine(avtk::bench::state().db(), cfg);
}

struct pass_stats {
  std::size_t queries = 0;
  double total_seconds = 0;
  std::vector<std::int64_t> latencies_ns;

  double qps() const { return avtk::obs::queries_per_second(queries, total_seconds); }
  std::int64_t percentile_ns(double p) const {
    return avtk::obs::latency_percentile_ns(latencies_ns, p);
  }
};

// One pass over the workload on `engine`, accumulating into `stats`.
void run_pass(query_engine& engine, const std::vector<query>& workload, pass_stats& stats) {
  const avtk::obs::stopwatch watch;
  for (const auto& q : workload) {
    const auto r = engine.execute(q);
    stats.latencies_ns.push_back(r.latency_ns);
  }
  stats.total_seconds += watch.elapsed_seconds();
  stats.queries += workload.size();
}

// One pass of the naive reference (filtered copy plus render) over the
// workload, accumulating into `stats`; returns every payload.
std::vector<std::string> run_reference_pass(const std::vector<query>& workload,
                                            pass_stats& stats) {
  const auto& db = avtk::bench::state().db();
  std::vector<std::string> payloads;
  payloads.reserve(workload.size());
  const avtk::obs::stopwatch watch;
  for (const auto& q : workload) {
    const avtk::obs::stopwatch one;
    payloads.push_back(avtk::serve::testing::reference_payload(db, q));
    stats.latencies_ns.push_back(one.elapsed_ns());
  }
  stats.total_seconds += watch.elapsed_seconds();
  stats.queries += workload.size();
  return payloads;
}

avtk::obs::json::value pass_json(const pass_stats& s) {
  namespace json = avtk::obs::json;
  return json::value(json::object{
      {"queries", json::value(s.queries)},
      {"total_seconds", json::value(s.total_seconds)},
      {"queries_per_second", json::value(s.qps())},
      {"p50_ns", json::value(s.percentile_ns(0.50))},
      {"p99_ns", json::value(s.percentile_ns(0.99))},
  });
}

// The seed corpus repeated `copies` times, every record with its own id.
avtk::dataset::failure_database replicated_corpus(int copies) {
  const auto& seed = avtk::bench::state().db();
  avtk::dataset::failure_database db;
  for (int c = 0; c < copies; ++c) {
    for (const auto& d : seed.disengagements()) db.add_disengagement(d);
    for (const auto& m : seed.mileage()) db.add_mileage(m);
    for (const auto& a : seed.accidents()) db.add_accident(a);
  }
  return db;
}

// Median over passes of the nanoseconds per appended record that a commit
// plus its index extension take on a store seeded with `copies` x the
// corpus. Each commit appends one filing-sized batch drawn round-robin from
// the seed (16 disengagements, 4 mileage rows, 1 accident); the timed
// span includes freeing the superseded epoch, which commit() does when no
// reader pins it.
double commit_ns_per_record(int copies) {
  const auto& seed = avtk::bench::state().db();
  constexpr int k_passes = 5;
  constexpr int k_commits = 100;
  constexpr std::size_t k_dis = 16, k_mil = 4, k_acc = 1;
  std::vector<double> per_record;
  for (int pass = 0; pass < k_passes; ++pass) {
    avtk::serve::snapshot_store store(replicated_corpus(copies));
    store.pin()->index();
    std::size_t next_dis = 0, next_mil = 0, next_acc = 0;
    std::int64_t ns = 0;
    for (int c = 0; c < k_commits; ++c) {
      const avtk::obs::stopwatch watch;
      const auto snap = store.commit([&](avtk::dataset::failure_database& db) {
        for (std::size_t i = 0; i < k_dis; ++i) {
          db.add_disengagement(seed.disengagements()[next_dis++ % seed.disengagements().size()]);
        }
        for (std::size_t i = 0; i < k_mil; ++i) {
          db.add_mileage(seed.mileage()[next_mil++ % seed.mileage().size()]);
        }
        for (std::size_t i = 0; i < k_acc; ++i) {
          db.add_accident(seed.accidents()[next_acc++ % seed.accidents().size()]);
        }
      });
      snap->index();
      ns += watch.elapsed_ns();
    }
    per_record.push_back(static_cast<double>(ns) /
                         static_cast<double>(k_commits * (k_dis + k_mil + k_acc)));
  }
  std::sort(per_record.begin(), per_record.end());
  return per_record[per_record.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  namespace json = avtk::obs::json;

  // The same filtered slicing mix through the naive reference and a cold
  // engine, a fresh engine per pass so every measured execute is a cache
  // miss. One filtered query outside the workload primes each engine
  // first: it triggers the once-per-epoch index build (amortized across
  // every filtered query in steady state, not a per-query cost) without
  // warming any workload cache entry.
  const auto filtered_workload = build_filtered_workload();
  query prime;
  prime.kind = query_kind::metrics;
  prime.maker = avtk::bench::state().analyzed().front();
  constexpr int k_cold_passes = 3;
  pass_stats filtered_reference, filtered_indexed;
  bool payloads_identical = true;
  for (int pass = 0; pass < k_cold_passes; ++pass) {
    const auto expected = run_reference_pass(filtered_workload, filtered_reference);
    auto indexed_engine = make_engine();
    indexed_engine.execute(prime);
    run_pass(indexed_engine, filtered_workload, filtered_indexed);
    for (std::size_t i = 0; i < filtered_workload.size(); ++i) {
      payloads_identical &= *indexed_engine.execute(filtered_workload[i]).payload == expected[i];
    }
  }
  const auto speedup = [](const pass_stats& reference, const pass_stats& indexed, double p) {
    const auto indexed_ns = indexed.percentile_ns(p);
    return indexed_ns > 0 ? static_cast<double>(reference.percentile_ns(p)) /
                                static_cast<double>(indexed_ns)
                          : 0.0;
  };
  const double speedup_p50 = speedup(filtered_reference, filtered_indexed, 0.50);
  const double speedup_p99 = speedup(filtered_reference, filtered_indexed, 0.99);

  const double commit_1x_ns = commit_ns_per_record(1);
  const double commit_8x_ns = commit_ns_per_record(8);
  const double commit_scaling = commit_8x_ns / commit_1x_ns;
  std::ostringstream rows;
  rows << "filtered cold queries (reference vs indexed)\n"
       << "workload: " << filtered_workload.size() << " filtered queries\n"
       << "reference: " << filtered_reference.qps() << " q/s (p50 "
       << filtered_reference.percentile_ns(0.5) / 1000 << " us, p99 "
       << filtered_reference.percentile_ns(0.99) / 1000 << " us)\n"
       << "indexed:   " << filtered_indexed.qps() << " q/s (p50 "
       << filtered_indexed.percentile_ns(0.5) / 1000 << " us, p99 "
       << filtered_indexed.percentile_ns(0.99) / 1000 << " us)\n"
       << "indexed speedup: p50 " << speedup_p50 << "x, p99 " << speedup_p99 << "x\n"
       << "payloads identical: " << (payloads_identical ? "yes" : "NO") << "\n"
       << "commit + index extension per record: 1x corpus " << commit_1x_ns << " ns, 8x corpus "
       << commit_8x_ns << " ns (8x/1x " << commit_scaling << ")\n";
  return avtk::bench::run_experiment(
      "serve_throughput", rows.str(), argc, argv,
      {{"serve", json::value(json::object{
                     {"filtered", json::value(json::object{
                                      {"workload_queries", json::value(filtered_workload.size())},
                                      {"reference", pass_json(filtered_reference)},
                                      {"indexed", pass_json(filtered_indexed)},
                                      {"indexed_speedup_p50", json::value(speedup_p50)},
                                      {"indexed_speedup_p99", json::value(speedup_p99)},
                                      {"payloads_identical", json::value(payloads_identical)},
                                  })},
                     {"commit_scaling", json::value(json::object{
                                            {"ns_per_record_1x", json::value(commit_1x_ns)},
                                            {"ns_per_record_8x", json::value(commit_8x_ns)},
                                            {"ratio_8x_over_1x", json::value(commit_scaling)},
                                        })},
                 })}});
}
