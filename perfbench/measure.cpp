#include "measure.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <istream>
#include <limits>
#include <ostream>

#include "core/pipeline.h"
#include "dataset/csv_io.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace avbench {

namespace serve = avtk::serve;

void run_result::fail(std::string why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(std::move(why));
}

std::uint64_t database_digest(const avtk::dataset::failure_database& db) {
  const auto csv = avtk::dataset::export_csv(db);
  fingerprint f;
  f.add(csv.disengagements);
  f.add(csv.mileage);
  f.add(csv.accidents);
  return f.h;
}

namespace {

avtk::core::pipeline_config batch_config(unsigned parallelism) {
  avtk::core::pipeline_config cfg;
  cfg.parallelism = parallelism;
  return cfg;
}

double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

std::vector<double> to_ms(const std::vector<std::int64_t>& ns) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (const auto v : ns) out.push_back(ms(v));
  return out;
}

// Wall-clock budget of one run, split into phases by share of the total.
struct budget {
  std::int64_t start = now_ns();
  double seconds;
  bool before(double share) const {
    return static_cast<double>(now_ns() - start) < share * seconds * 1e9;
  }
};

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

// Set-ups are summarized by their lower quartile. On a shared host, the
// program's speed drifts by up to a quarter in episodes of seconds to tens
// of seconds (CPU steal, and neighbours on the same cores, which no
// clock of this guest sees); they only ever slow the program down.
double lower_quartile(const std::vector<double>& v) { return percentile(v, 25); }

// Passes are summarized per item: each item's best (lowest) figure over
// the passes that measured it. Used where a run replays the same items
// (windows, segments, requests) many times, spread over the run: a pass
// slowed by a host episode loses to a pass of the same item that was
// spared, while a slower program is slower in every pass.
struct best_of {
  std::vector<double> v;
  void add(std::size_t item, double x) {
    if (item >= v.size()) v.resize(item + 1, std::numeric_limits<double>::infinity());
    v[item] = std::min(v[item], x);
  }
  double sum() const {
    double t = 0;
    for (const double x : v) t += x;
    return t;
  }
};

// Set-ups per run. Each set-up reports the seconds of its phases; setup_s
// is the sum of the per-phase lower quartiles, which is steadier than a
// figure of whole set-ups because each phase (a parallel run_pipeline
// among them) catches host noise on its own.
constexpr int k_setups = 7;
// batch_run's set-up is generate_corpus alone, about 0.1 s: more of them.
constexpr int k_batch_setups = 21;

// Repeats `setup(phase_s)` `n` times; every set-up must yield the same
// database digest.
template <class F>
double timed_setups(int n, F&& setup, run_result& out) {
  std::vector<std::vector<double>> phases;
  std::uint64_t first = 0;
  for (int i = 0; i < n; ++i) {
    std::vector<double> phase_s;
    const std::uint64_t digest = setup(phase_s);
    phases.resize(std::max(phases.size(), phase_s.size()));
    for (std::size_t k = 0; k < phase_s.size(); ++k) phases[k].push_back(phase_s[k]);
    ++out.attempted;
    if (i == 0) first = digest;
    if (digest != first) out.fail("set-up " + std::to_string(i) + " built a different database");
  }
  double total = 0;
  for (const auto& p : phases) total += lower_quartile(p);
  return total;
}

// A fresh corpus_state in `cs`, the old one released first so that two
// databases are never alive at once; records the generate and pipeline
// phases.
void rebuild_corpus_state(corpus_state& cs, std::vector<double>& phase_s) {
  cs = {};
  cs = build_corpus_state();
  phase_s.push_back(cs.generate_s);
  phase_s.push_back(cs.pipeline_s);
}

// run_serve_loop's default in-flight window: twice the serve engine's 2 threads.
constexpr std::size_t k_window = 2 * 2;

// Open-loop latency summary. The gated p50 is the median over requests of
// each request's best program latency (program_latency_ms: the latency
// beyond the window's batching floor) over the passes that replayed it.
// The due-time percentiles, which include that floor, are printed beside
// it as medians over passes.
struct open_summary {
  std::vector<double> due_p50_ms, p90_ms, p99_ms;
  std::vector<double> late_us;
  best_of best_ms;  ///< per request (slice * limit + line)
  std::size_t samples = 0;
  std::size_t backlog = 0;

  void add(const pass_result& p, std::size_t limit, std::size_t slice = 0,
           const std::vector<long>* filing_of_line = nullptr) {
    std::vector<double> lat;
    for (std::size_t i = 0; i < limit && i < p.latency_ns.size(); ++i) {
      lat.push_back(ms(p.latency_ns[i]));
    }
    samples += lat.size();
    const auto program = program_latency_ms(p, limit, k_window, filing_of_line);
    for (std::size_t i = 0; i < program.size(); ++i) best_ms.add(slice * limit + i, program[i]);
    due_p50_ms.push_back(percentile(lat, 50));
    p90_ms.push_back(percentile(lat, 90));
    p99_ms.push_back(percentile(lat, 99));
    for (const auto v : p.wake_late_ns) late_us.push_back(static_cast<double>(v) * 1e-3);
    backlog = std::max(backlog, p.backlog);
  }

  double p50() const { return median(best_ms.v); }
};

// The max_rps ladder: rates base * 1.04^j up to 3x base, binary-searched
// for the highest one whose p99 stays within `limit_ms` with no backlog.
// Every step offers the same `lines`, so its cost in memory does not
// depend on which rates the search happens to visit.
double max_rps(const std::function<serve::query_engine&()>& engine_for_step,
               const line_stream& lines, std::size_t n, const std::vector<expectation>& expected,
               double base, double limit_ms, run_result& out) {
  const int top = static_cast<int>(std::ceil(std::log(3.0) / std::log(1.04)));
  const auto rate = [&](int j) { return base * std::pow(1.04, j); };
  const auto sustained = [&](int j) {
    const auto due = fixed_rate_due(n, rate(j));
    const auto pass = run_pass(engine_for_step(), lines, &due, n);
    out.attempted += n;
    check_pass(pass, n, expected, out);
    return percentile(to_ms(pass.latency_ns), 99) <= limit_ms &&
           pass.backlog <= std::max<std::size_t>(16, n / 100);
  };
  int lo = -1;
  int hi = top + 1;
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    (sustained(mid) ? lo : hi) = mid;
  }
  return lo < 0 ? 0.0 : rate(lo);
}

// The metrics of the result line. Tail percentiles are printed beside it
// (finish_open) but carry no bound: on a shared 4-vCPU guest they move by
// more than the largest bound between runs of the same code.
void add_common(run_result& r, double setup_s, double throughput, double p50_ms) {
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mib", peak_rss_mib(), "MiB");
  r.add("throughput_per_s", throughput, "1/s");
  r.add("lat_p50_ms", p50_ms, "ms");
}

void finish_open(run_result& r, const open_summary& open) {
  r.note("lat_samples", static_cast<double>(open.samples), "count");
  r.note("lat_passes", static_cast<double>(open.due_p50_ms.size()), "count");
  r.note("lat_due_p50_ms", median(open.due_p50_ms), "ms");
  r.note("lat_p90_ms", median(open.p90_ms), "ms");
  r.note("lat_p99_ms", median(open.p99_ms), "ms");
  r.note("bench.gen_late_us", percentile(open.late_us, 50), "us");
  r.note("bench.gen_late_p99_us", percentile(open.late_us, 99), "us");
  r.note("bench.backlog", static_cast<double>(open.backlog), "lines");
}

// ---- serve_hot ----------------------------------------------------------

run_result measure_hot(std::uint64_t seed, double seconds) {
  run_result r;
  corpus_state cs;
  std::unique_ptr<serve::query_engine> engine;
  std::vector<serve::query> hot;
  const double setup_s = timed_setups(k_setups, [&](std::vector<double>& phase_s) {
    engine.reset();
    rebuild_corpus_state(cs, phase_s);
    const std::int64_t t0 = now_ns();
    hot = hot_queries(cs.analyzed);
    engine = make_engine(cs.db);
    for (const auto& q : hot) engine->execute(q);  // warm-up: every later draw hits
    phase_s.push_back(seconds_since(t0));
    return database_digest(cs.db);
  }, r);

  auto oracle = make_engine(cs.db, 1);
  std::vector<expectation> hot_expected;
  for (const auto& q : hot) hot_expected.push_back(oracle_answer(*oracle, request_line(q, 0)));
  oracle.reset();

  // The draws, whole for the max_rps ladder and cut into slices (ids
  // renumbered from 0) for the measured passes. A slice passes in about
  // 10 ms closed and 25 ms open, so each slice is replayed about forty
  // times over the run.
  constexpr std::size_t n = 10000;
  constexpr std::size_t slice = 1000;
  const auto draws = zipf_draws(hot.size(), n, seed);
  line_stream lines;
  std::vector<expectation> expected;
  std::vector<line_stream> slices(n / slice);
  std::vector<std::vector<expectation>> slice_expected(n / slice);
  for (std::size_t i = 0; i < n; ++i) {
    lines.push(request_line(hot[draws[i]], i));
    expected.push_back(hot_expected[draws[i]]);
    slices[i / slice].push(request_line(hot[draws[i]], i % slice));
    slice_expected[i / slice].push_back(hot_expected[draws[i]]);
  }
  reset_peak_rss();

  // Closed- and open-loop passes alternate over the whole run, so that
  // every slice is replayed many times, spread over the run.
  const budget b{now_ns(), seconds};
  const auto due = fixed_rate_due(slice, k_hot_rate);
  const auto evictions = engine->cache_evictions();
  best_of closed_s;
  open_summary open;
  for (std::size_t k = 0; k < 2 * slices.size() || b.before(0.85); ++k) {
    if (k > 0 && k % slices.size() == 0) {
      // A fresh warmed engine per round of slices: new worker threads and
      // a new cache layout, whose placement would otherwise hold for the
      // whole run.
      if (engine->cache_evictions() != evictions) r.fail("serve_hot evicted warm entries");
      engine.reset();
      engine = make_engine(cs.db);
      for (const auto& q : hot) engine->execute(q);
    }
    const auto& part = slices[k % slices.size()];
    const auto& want = slice_expected[k % slices.size()];
    const auto closed = run_pass(*engine, part, nullptr, slice);
    r.attempted += slice;
    check_pass(closed, slice, want, r);
    closed_s.add(k % slices.size(), static_cast<double>(closed.wall_ns) * 1e-9);
    const auto pass = run_pass(*engine, part, &due, slice);
    r.attempted += slice;
    check_pass(pass, slice, want, r);
    open.add(pass, slice, k % slices.size());
  }
  if (engine->cache_evictions() != evictions) r.fail("serve_hot evicted warm entries");
  const double max = max_rps([&]() -> serve::query_engine& { return *engine; }, lines, n,
                             expected, k_hot_rate, k_hot_limit_ms, r);

  const double sat = static_cast<double>(n) / closed_s.sum();
  add_common(r, setup_s, sat, open.p50());
  r.note("sat_rps", sat, "req/s");
  r.note("max_rps", max, "req/s");
  finish_open(r, open);
  return r;
}

// ---- serve_cold ---------------------------------------------------------

run_result measure_cold(std::uint64_t seed, double seconds) {
  run_result r;
  corpus_state cs;
  std::unique_ptr<serve::query_engine> engine;
  const double setup_s = timed_setups(k_setups, [&](std::vector<double>& phase_s) {
    engine.reset();
    rebuild_corpus_state(cs, phase_s);
    const std::int64_t t0 = now_ns();
    engine = make_engine(cs.db);
    phase_s.push_back(seconds_since(t0));
    return database_digest(cs.db);
  }, r);
  engine.reset();

  // The distinct queries, cut into windows; each pass replays one window
  // (ids renumbered from 0) on a fresh engine, so every request misses. A
  // window passes in about 45 ms closed and 170 ms open. Each open-loop
  // pass, over the first `open_windows` windows in turn, follows
  // `closed_per_open` closed-loop passes over all windows in turn, so
  // every window is replayed about ten times, spread over the run. The
  // max_rps ladder offers the first `ladder` queries, enough for a p99.
  constexpr std::size_t n = 1600;
  constexpr std::size_t window = 100;
  constexpr std::size_t open_windows = 4;
  constexpr std::size_t closed_per_open = 3;
  constexpr std::size_t ladder = 400;
  const auto cold = cold_queries(cs.analyzed, n, seed);
  std::vector<line_stream> windows(n / window);
  std::vector<std::vector<expectation>> expected(n / window);
  line_stream ladder_lines;
  std::vector<expectation> ladder_expected;
  {
    auto oracle = make_engine(cs.db, 1);
    for (std::size_t i = 0; i < n; ++i) {
      const auto want = oracle_answer(*oracle, request_line(cold[i], 0));
      windows[i / window].push(request_line(cold[i], i % window));
      expected[i / window].push_back(want);
      if (i < ladder) {
        ladder_lines.push(request_line(cold[i], i));
        ladder_expected.push_back(want);
      }
      ++r.attempted;
      if (!want.ok) r.fail("cold query " + std::to_string(i) + " failed on the oracle: " + want.code);
    }
  }
  reset_peak_rss();
  const auto fresh = [&]() -> serve::query_engine& {
    engine.reset();
    engine = make_engine(cs.db);
    return *engine;
  };

  const budget b{now_ns(), seconds};
  const auto due = fixed_rate_due(window, k_cold_rate);
  best_of closed_s;
  open_summary open;
  std::size_t closed_next = 0;
  for (std::size_t k = 0; k < 2 * windows.size() / closed_per_open || b.before(0.8); ++k) {
    for (std::size_t c = 0; c < closed_per_open; ++c, ++closed_next) {
      const std::size_t w = closed_next % windows.size();
      auto& e = fresh();
      const auto before = avtk::obs::metrics().snapshot();
      const auto closed = run_pass(e, windows[w], nullptr, window);
      r.attempted += window;
      check_pass(closed, window, expected[w], r);
      closed_s.add(w, static_cast<double>(closed.wall_ns) * 1e-9);
      if (avtk::obs::metrics().snapshot().counter_delta(before, "serve.cache_hits") != 0) {
        r.fail("serve_cold: a request hit the cache");
      }
    }
    const std::size_t w = k % open_windows;
    const auto pass = run_pass(fresh(), windows[w], &due, window);
    r.attempted += window;
    check_pass(pass, window, expected[w], r);
    open.add(pass, window, w);
  }
  const double max =
      max_rps(fresh, ladder_lines, ladder, ladder_expected, k_cold_rate, k_cold_limit_ms, r);

  const double sat = static_cast<double>(n) / closed_s.sum();
  add_common(r, setup_s, sat, open.p50());
  r.note("sat_rps", sat, "req/s");
  r.note("max_rps", max, "req/s");
  finish_open(r, open);
  return r;
}

// ---- ingest_live --------------------------------------------------------

run_result measure_ingest(std::uint64_t seed, double seconds) {
  run_result r;
  corpus_state cs;
  std::unique_ptr<serve::query_engine> engine;
  const double setup_s = timed_setups(k_setups, [&](std::vector<double>& phase_s) {
    engine.reset();
    rebuild_corpus_state(cs, phase_s);
    const std::int64_t t0 = now_ns();
    engine = make_engine(cs.db);
    phase_s.push_back(seconds_since(t0));
    return database_digest(cs.db);
  }, r);
  engine.reset();

  const auto filings = build_filings(seed);
  const auto stream = build_ingest_stream(filings, seed);
  const std::size_t n = stream.lines.size();

  // The oracle replays the stream synchronously; besides the expected
  // bytes it checks the exact ingest accounting line by line.
  std::vector<expectation> expected;
  std::size_t accepted = 0;
  {
    auto oracle = make_engine(cs.db, 1);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t epoch = oracle->epoch();
      expected.push_back(oracle_answer(*oracle, stream.lines.line(i)));
      const long f = stream.filing_of_line[i];
      if (f < 0) continue;
      const auto& doc = filings[static_cast<std::size_t>(f)];
      const auto& e = expected.back();
      ++r.attempted;
      if (doc.corrupted) {
        if (e.ok || e.code != avtk::error_code_name(doc.expected_code)) {
          r.fail("corrupted filing " + std::to_string(f) + " not rejected with its manifest code");
        } else if (oracle->epoch() != epoch) {
          r.fail("rejected filing " + std::to_string(f) + " advanced the epoch");
        }
      } else if (!e.ok) {
        r.fail("clean filing " + std::to_string(f) + " rejected: " + e.code);
      } else if (oracle->epoch() != epoch + 1) {
        r.fail("accepted filing " + std::to_string(f) + " did not advance the epoch by one");
      } else {
        ++accepted;
      }
    }
  }
  reset_peak_rss();

  const auto fresh = [&]() -> serve::query_engine& {
    engine.reset();
    engine = make_engine(cs.db);
    return *engine;
  };
  const auto check_epoch = [&](const serve::query_engine& e) {
    ++r.attempted;
    if (e.epoch() != accepted) r.fail("live engine epoch differs from accepted filings");
  };
  // Two closed-loop passes, then an open-loop one, over the whole run.
  // Each closed pass is cut into filing segments (filing_segments_s); each
  // segment's time is its best over the passes, and their sum the pass
  // time of docs_per_s.
  const budget b{now_ns(), seconds};
  const auto due = fixed_rate_due(n, k_ingest_rate);
  best_of segment_s, filing_ms;
  open_summary open;
  std::vector<double> ingest_p50, ingest_p95;
  for (int k = 0; k < 2 || b.before(0.8); ++k) {
    for (int c = 0; c < 2; ++c) {
      const auto closed = run_pass(fresh(), stream.lines, nullptr, n);
      r.attempted += n;
      check_pass(closed, n, expected, r);
      check_epoch(*engine);
      const auto segments = filing_segments_s(closed, stream.filing_of_line);
      for (std::size_t i = 0; i < segments.size(); ++i) segment_s.add(i, segments[i]);
    }
    const auto pass = run_pass(fresh(), stream.lines, &due, n);
    r.attempted += n;
    check_pass(pass, n, expected, r);
    check_epoch(*engine);
    open.add(pass, n, 0, &stream.filing_of_line);
    std::vector<double> ingest_ms;
    for (std::size_t i = 0; i < n && i < pass.latency_ns.size(); ++i) {
      if (stream.filing_of_line[i] < 0) continue;
      ingest_ms.push_back(ms(pass.latency_ns[i]));
      filing_ms.add(static_cast<std::size_t>(stream.filing_of_line[i]), ingest_ms.back());
    }
    ingest_p50.push_back(percentile(ingest_ms, 50));
    ingest_p95.push_back(percentile(ingest_ms, 95));
  }

  // The gated latency is the filings': a filing drains the window and is
  // answered at once, so its latency from due time is the program's own
  // (parse, OCR, label, commit, invalidation), with no batching floor: the
  // median over filings of each filing's best. The queries' p50, mostly
  // the reader's handling of the releasing line, is printed beside it.
  const double docs = static_cast<double>(filings.size()) / segment_s.sum();
  add_common(r, setup_s, docs, median(filing_ms.v));
  r.note("docs_per_s", docs, "docs/s");
  r.note("lat_lines_p50_ms", open.p50(), "ms");
  r.note("ingest_p50_ms", median(ingest_p50), "ms");
  r.note("ingest_p95_ms", median(ingest_p95), "ms");
  r.note("filings", static_cast<double>(filings.size()), "count");
  r.note("filings_accepted", static_cast<double>(accepted), "count");
  finish_open(r, open);
  return r;
}

// ---- batch_run ----------------------------------------------------------

// The input is the calibrated corpus every workload loads, whatever the
// seed: re-drawn corpora differ in their largest document, which alone
// moved the median run time by ~12% from seed to seed.
run_result measure_batch(double seconds) {
  run_result r;
  avtk::dataset::generated_corpus corpus;
  const double setup_s = timed_setups(k_batch_setups, [&](std::vector<double>& phase_s) {
    corpus = {};
    const std::int64_t t0 = now_ns();
    corpus = avtk::dataset::generate_corpus();
    phase_s.push_back(seconds_since(t0));
    std::uint64_t digest = 0;
    for (const auto& d : corpus.documents) digest = digest * 31 + hash_bytes(d.full_text());
    return digest;
  }, r);

  const auto serial = avtk::core::run_pipeline(corpus.documents, corpus.pristine_documents,
                                               batch_config(1));
  const std::uint64_t reference = database_digest(serial.database);
  reset_peak_rss();

  const budget b{now_ns(), seconds};
  std::vector<double> run_ms;
  while (run_ms.size() < 5 || b.before(1.0)) {
    const std::int64_t t0 = now_ns();
    const auto result = avtk::core::run_pipeline(corpus.documents, corpus.pristine_documents,
                                                 batch_config(4));
    const std::int64_t wall = now_ns() - t0;
    run_ms.push_back(ms(wall));
    ++r.attempted;
    if (database_digest(result.database) != reference) {
      r.fail("parallel run " + std::to_string(run_ms.size()) + " differs from the serial run");
    }
  }
  const double docs = static_cast<double>(corpus.documents.size());
  // Runs, unlike serve passes, are summarized by their median: each one is
  // short, and how the 4-way scan happens to balance varies from run to run.
  add_common(r, setup_s, docs / (median(run_ms) * 1e-3), median(run_ms));
  r.note("lat_p90_ms", percentile(run_ms, 90), "ms");
  r.note("lat_p99_ms", percentile(run_ms, 99), "ms");
  r.note("run_s", median(run_ms) * 1e-3, "s");
  r.note("runs", static_cast<double>(run_ms.size()), "count");
  r.note("documents", docs, "count");
  return r;
}

}  // namespace

corpus_state build_corpus_state() {
  corpus_state s;
  std::int64_t t0 = now_ns();
  s.corpus = avtk::dataset::generate_corpus();
  s.generate_s = static_cast<double>(now_ns() - t0) * 1e-9;
  t0 = now_ns();
  auto result = avtk::core::run_pipeline(s.corpus.documents, s.corpus.pristine_documents,
                                         batch_config(4));
  s.pipeline_s = static_cast<double>(now_ns() - t0) * 1e-9;
  s.db = std::move(result.database);
  s.analyzed = std::move(result.stats.analyzed);
  return s;
}

std::unique_ptr<serve::query_engine> make_engine(const avtk::dataset::failure_database& db,
                                                 unsigned threads, avtk::obs::trace* trace) {
  serve::engine_config cfg;
  cfg.threads = threads;
  cfg.trace = trace;
  auto engine = std::make_unique<serve::query_engine>(db, cfg);
  engine->snapshot()->index();  // priming: the epoch's posting lists
  return engine;
}

pass_result run_pass(serve::query_engine& engine, const line_stream& lines,
                     const std::vector<std::int64_t>* due_ns, std::size_t limit) {
  return drive(lines, due_ns, limit, [&](std::istream& in, std::ostream& out) {
    serve::run_serve_loop(engine, in, out);
  });
}

pass_result drive(const line_stream& lines, const std::vector<std::int64_t>* due_ns,
                  std::size_t limit,
                  const std::function<void(std::istream&, std::ostream&)>& loop) {
  limit = std::min(limit, lines.size());
  paced_source source(lines, due_ns, limit);
  stamping_sink sink(limit);
  std::istream in(&source);
  std::ostream out(&sink);
  pass_result p;
  const std::int64_t t0 = now_ns();
  source.start(t0);
  loop(in, out);
  out.flush();
  p.wall_ns = now_ns() - t0;
  p.responses = sink.take_lines();
  p.wake_late_ns = source.wake_late_ns();
  p.available_ns = source.available_ns();
  p.start_ns = t0;
  p.latency_ns.reserve(p.responses.size());
  for (std::size_t i = 0; i < p.responses.size() && i < limit; ++i) {
    const std::int64_t due = t0 + (due_ns != nullptr ? (*due_ns)[i] : 0);
    p.latency_ns.push_back(p.responses[i].written_ns - due);
  }
  if (due_ns != nullptr && limit > 0) {
    const std::int64_t last_due = t0 + (*due_ns)[limit - 1];
    p.backlog = static_cast<std::size_t>(
        std::count_if(p.responses.begin(), p.responses.end(),
                      [&](const response_line& r) { return r.written_ns > last_due; }));
  }
  return p;
}

std::vector<double> program_latency_ms(const pass_result& p, std::size_t limit, std::size_t window,
                                       const std::vector<long>* filing_of_line) {
  const auto barrier = [&](std::size_t i) {
    return filing_of_line != nullptr && (*filing_of_line)[i] >= 0;
  };
  const std::size_t n = std::min({limit, p.responses.size(), p.available_ns.size()});
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // The line whose arrival lets response i leave: i itself for a filing,
    // else the first filing or the line window - 1 ahead, whichever comes
    // first, or the stream's last line. Responses leave in order, so i also
    // waits for response i - 1.
    std::size_t j = i;
    if (!barrier(i)) {
      while (j + 1 < n && j < i + window - 1 && !barrier(j)) ++j;
    }
    std::int64_t from = p.start_ns + p.available_ns[j];
    if (i > 0) from = std::max(from, p.responses[i - 1].written_ns);
    out.push_back(ms(p.responses[i].written_ns - from));
  }
  return out;
}

std::vector<double> filing_segments_s(const pass_result& p,
                                      const std::vector<long>& filing_of_line) {
  std::vector<double> out;
  std::int64_t from = p.start_ns;
  for (std::size_t i = 0; i < p.responses.size() && i < filing_of_line.size(); ++i) {
    if (filing_of_line[i] < 0 && i + 1 < p.responses.size()) continue;
    out.push_back(static_cast<double>(p.responses[i].written_ns - from) * 1e-9);
    from = p.responses[i].written_ns;
  }
  return out;
}

expectation oracle_answer(serve::query_engine& oracle, std::string_view line) {
  response_line r;
  inspect_response(serve::handle_request_line(oracle, line), r);
  return {r.hash, r.ok, r.code};
}

void check_pass(const pass_result& pass, std::size_t limit,
                const std::vector<expectation>& expected, run_result& out) {
  if (pass.responses.size() != limit) {
    out.fail("pass answered " + std::to_string(pass.responses.size()) + " of " +
             std::to_string(limit) + " lines");
  }
  for (std::size_t i = 0; i < limit && i < pass.responses.size(); ++i) {
    const auto& got = pass.responses[i];
    const auto& want = expected[i];
    if (got.id != static_cast<std::int64_t>(i)) {
      out.fail("line " + std::to_string(i) + ": response echoes id " + std::to_string(got.id));
    } else if (got.ok != want.ok || got.hash != want.hash) {
      out.fail("line " + std::to_string(i) + ": response differs from the single-thread oracle" +
               (got.ok ? "" : " (" + got.code + ")"));
    }
  }
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

run_result measure(workload w, std::uint64_t seed, double seconds) {
  switch (w) {
    case workload::serve_hot: return measure_hot(seed, seconds);
    case workload::serve_cold: return measure_cold(seed, seconds);
    case workload::ingest_live: return measure_ingest(seed, seconds);
    case workload::batch_run: return measure_batch(seconds);
  }
  return {};
}

}  // namespace avbench
