// The traced per-layer run (--trace 1).
//
// A traced pass replays a workload synchronously, one request line at a
// time, on one obs::trace that the engine (engine_config::trace) and the
// pipeline (pipeline_config::trace) record their own spans into as well.
// Each line runs once for real, as handle_request_line in a span, and then
// through probes: the public calls of the layers it crossed, each in a span
// of its own, re-run on the same pinned state.
//
// When the pass ends the spans are nested by time. Only the real
// executions count towards the attribution: each span under them is
// charged its self time (duration minus its direct children) by the layer
// its name belongs to, and each probe's time is moved out of the layer that
// hosts that work in the real call (the protocol for the reader's parses,
// the engine for selections and builders) into the probe's own layer. The
// layer self times are checked against the wall time of the real
// executions alone (trace.coverage, which should stay within 10% of 1); a
// probe that claims more than its host spent pushes it above 1.
//
// The selected workload's pass gets most of the run; the other three
// paths run a short pass each so that every per-layer metric carries a
// measured value whichever workload is traced.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/figures.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "core/tables.h"
#include "ingest/processor.h"
#include "measure.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "reliability/events.h"
#include "reliability/mcf.h"
#include "reliability/nhpp.h"
#include "serve/index.h"
#include "serve/protocol.h"

namespace avbench {

namespace {

namespace serve = avtk::serve;
namespace json = avtk::obs::json;
using avtk::dataset::database_view;
using avtk::dataset::manufacturer;
using serve::query_kind;

// ---- spans --------------------------------------------------------------

struct tracer {
  avtk::obs::trace trace;
  template <class F>
  auto span(const char* name, F&& f) {
    const auto id = trace.begin_span(name);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      trace.end_span(id);
    } else {
      auto out = f();
      trace.end_span(id);
      return out;
    }
  }
};

// The layer a span's self time belongs to. The per-request span names stay
// within 15 characters, the small-string buffer, so recording a span
// allocates nothing beyond its slot in the trace.
std::string layer_of(std::string_view name) {
  const auto starts = [&](std::string_view p) { return name.starts_with(p); };
  if (starts("proto.")) return "protocol";
  if (starts("obs.json")) return "obs.json";
  if (starts("query.")) return "query";
  if (starts("store.") || starts("serve.snapshot.commit")) return "store";
  if (starts("index.") || starts("serve.index.build")) return "index";
  if (starts("dataset.")) return "dataset";
  if (starts("core.")) return "core";
  if (starts("reliability.")) return "reliability";
  if (starts("pool.")) return "thread_pool";
  if (starts("serve.")) return "engine";
  if (starts("ingest.") || name == "quarantine") return "ingest";
  if (starts("ocr")) return "ocr";
  if (name == "parse") return "parse";
  if (name == "label") return "nlp";
  return "other";
}

struct nested_span {
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  long parent = -1;
  std::int64_t child_ns = 0;
};

// Nests the spans of a single-timeline pass by time containment.
std::vector<nested_span> nest(const std::vector<avtk::obs::span>& raw) {
  std::vector<nested_span> out;
  for (const auto& s : raw) {
    if (s.duration_ns < 0) continue;
    out.push_back({s.name, s.start_ns, s.start_ns + s.duration_ns, -1, 0});
  }
  std::sort(out.begin(), out.end(), [](const nested_span& a, const nested_span& b) {
    return a.start != b.start ? a.start < b.start : a.end > b.end;
  });
  std::vector<long> stack;
  for (long i = 0; i < static_cast<long>(out.size()); ++i) {
    while (!stack.empty() && out[stack.back()].end < out[i].end) stack.pop_back();
    if (!stack.empty()) {
      out[i].parent = stack.back();
      out[stack.back()].child_ns += out[i].end - out[i].start;
    }
    stack.push_back(i);
  }
  return out;
}

// ---- per-layer accumulators ---------------------------------------------

struct layer_stats {
  std::map<std::string, std::vector<double>> samples;
  void add(const std::string& name, double v) { samples[name].push_back(v); }
  bool has(const std::string& name) const { return samples.count(name) != 0; }
  double mean(const std::string& name) const {
    const auto it = samples.find(name);
    if (it == samples.end() || it->second.empty()) return 0;
    double s = 0;
    for (const double v : it->second) s += v;
    return s / static_cast<double>(it->second.size());
  }
};

struct pass_summary {
  double wall_ms = 0;
  double coverage = 0;  ///< sum of layer self times / wall
  std::map<std::string, double> self_ms;
};

// The layer that hosts a probe's work inside the real call: the reader
// side of handle_request_line, or the engine's serve.query span; empty
// for probes that repeat work the real call spans itself (or that the
// real call does not do, like the pool handoff).
std::string_view probe_host(std::string_view probe) {
  if (probe == "obs.json.parse" || probe == "obs.json.ingest_parse" || probe == "query.parse" ||
      probe == "query.key" || probe == "store.pin") {
    return "protocol";
  }
  if (probe == "index.select" || probe.starts_with("dataset.") || probe.starts_with("core.") ||
      probe.starts_with("reliability.")) {
    return "engine";
  }
  return {};
}

// Layer self times over the real executions (top-level proto.request and
// proto.ingest spans and everything under them), with every probe's time
// moved from its host layer to its own; `wall_ns` is the real executions'
// wall time.
pass_summary summarize(const std::vector<nested_span>& spans, std::int64_t wall_ns) {
  pass_summary p;
  p.wall_ms = static_cast<double>(wall_ns) * 1e-6;
  std::vector<std::size_t> root(spans.size());
  std::map<std::string, double> carved;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    root[i] = s.parent < 0 ? i : root[static_cast<std::size_t>(s.parent)];
    const auto& top = spans[root[i]].name;
    if (top == "proto.request" || top == "proto.ingest") {
      p.self_ms[layer_of(s.name)] += static_cast<double>(s.end - s.start - s.child_ns) * 1e-6;
    } else if (const auto host = probe_host(s.name); s.parent < 0 && !host.empty()) {
      const double d = static_cast<double>(s.end - s.start) * 1e-6;
      p.self_ms[layer_of(s.name)] += d;
      carved[std::string(host)] += d;
    }
  }
  for (const auto& [host, ms] : carved) p.self_ms[host] = std::max(0.0, p.self_ms[host] - ms);
  double total = 0;
  for (const auto& [layer, ms] : p.self_ms) total += ms;
  p.coverage = wall_ns > 0 ? total / p.wall_ms : 0;
  return p;
}

double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }
double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

std::vector<manufacturer> makers_for(const database_view& view, const serve::query& q) {
  if (q.maker) return {*q.maker};
  return view.manufacturers_present();
}

bool needs_filter(const serve::query& q) { return q.maker || q.year || q.tag || q.category; }

// Re-runs the Stage-IV builder a query kind executes over `view`.
void run_builder(tracer& t, const database_view& view, const serve::query& q) {
  const auto makers = makers_for(view, q);
  switch (q.kind) {
    case query_kind::metrics:
    case query_kind::trend:
    case query_kind::compare:
      // The vehicle-month attribution these three share, on its own.
      t.span("dataset.vehicle_months", [&] { return view.vehicle_months().size(); });
      break;
    default:
      break;
  }
  switch (q.kind) {
    case query_kind::metrics:
      t.span("core.builder.metrics", [&] {
        for (const auto m : makers) avtk::core::compute_metrics(view, m);
      });
      break;
    case query_kind::tags:
      t.span("core.builder.tags", [&] { return avtk::core::build_tag_fractions(view, makers); });
      break;
    case query_kind::categories:
      t.span("core.builder.categories", [&] { return avtk::core::build_table4(view, makers); });
      break;
    case query_kind::modality:
      t.span("core.builder.modality", [&] { return avtk::core::build_table5(view, makers); });
      break;
    case query_kind::trend:
      t.span("core.builder.trend", [&] {
        for (const auto m : makers) avtk::core::build_monthly_trend(view, m);
      });
      break;
    case query_kind::fit:
      t.span("core.builder.fit",
             [&] { return avtk::core::build_fig11(view, makers, q.min_samples, 300.0); });
      break;
    case query_kind::compare:
      t.span("core.builder.compare", [&] { return avtk::core::build_table7(view, makers); });
      break;
    case query_kind::mcf:
      t.span("reliability.mcf", [&] {
        for (const auto& mp : avtk::reliability::extract_processes(view)) {
          const auto units = mp.vehicles.empty()
                                 ? std::span<const avtk::reliability::event_process>(&mp.fleet, 1)
                                 : std::span<const avtk::reliability::event_process>(mp.vehicles);
          avtk::reliability::mcf_options o;
          o.seed = q.seed;
          o.replicates = q.replicates;
          o.max_points = 200;
          avtk::reliability::estimate_mcf(units, o);
        }
      });
      break;
    case query_kind::nhpp:
      t.span("reliability.nhpp", [&] {
        for (const auto& mp : avtk::reliability::extract_processes(view)) {
          avtk::reliability::fit_trend(std::span(&mp.fleet, 1));
        }
      });
      break;
  }
}

// What one traced query line left behind, for the derived metrics.
struct query_record {
  query_kind kind;
  bool hit = false;                  ///< the real execution hit the cache
  std::int64_t hit_latency_ns = 0;   ///< the pool.submit probe's execute (a hit)
  std::size_t payload_bytes = 0;
};

// Runs query lines for real through handle_request_line, then probes each
// one: the reader's parses, the snapshot pin and cache key, on a miss the
// index selection and builder over the same pinned view, and last a
// submit().get() that hits the entry the real call left. Returns the wall
// time of the real executions alone.
std::int64_t traced_queries(tracer& t, serve::query_engine& engine, const line_stream& lines,
                            std::size_t begin, std::size_t end,
                            std::vector<query_record>& records, run_result& out) {
  const auto& misses = avtk::obs::metrics().get_counter("serve.cache_misses");
  std::int64_t wall = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const auto line = lines.line(i);
    const auto misses_before = misses.value();
    const std::int64_t t0 = now_ns();
    const std::string resp = t.span("proto.request", [&] {
      return serve::handle_request_line(engine, line);
    });
    wall += now_ns() - t0;
    const bool hit = misses.value() == misses_before;
    response_line rl;
    inspect_response(resp, rl);
    ++out.attempted;
    if (!rl.ok || rl.id != static_cast<std::int64_t>(i)) {
      out.fail("traced line " + std::to_string(i) + " failed or lost its id");
    }

    t.span("obs.json.parse", [&] { return json::parse(line).has_value(); });
    const auto q = t.span("query.parse", [&] { return serve::parse_query(line); });
    if (!q) {
      out.fail("traced line " + std::to_string(i) + " does not parse");
      continue;
    }
    const auto snap = t.span("store.pin", [&] { return engine.snapshot(); });
    t.span("query.key", [&] { return serve::cache_key(*q, snap->version()).size(); });
    if (!hit) {
      if (needs_filter(*q)) {
        const auto sel = t.span("index.select", [&] { return snap->index().select(*q); });
        run_builder(t, sel.view(snap->db()), *q);
      } else {
        run_builder(t, database_view(snap->db()), *q);
      }
    }
    const auto r = t.span("pool.submit", [&] { return engine.submit(*q).get(); });
    records.push_back({q->kind, hit, r.latency_ns, r.payload->size()});
  }
  return wall;
}

// Fills the serve-path metrics from a traced query pass.
void serve_metrics(const std::vector<nested_span>& spans, const std::vector<query_record>& records,
                   layer_stats& ls) {
  // Walk the spans in order; each query line opens with its real
  // proto.request, and only its real execution can miss the cache.
  std::size_t line = static_cast<std::size_t>(-1);
  std::vector<double> miss_ns(records.size(), 0), select_ns(records.size(), 0),
      builder_ns(records.size(), 0);
  for (const auto& s : spans) {
    const double d = static_cast<double>(s.end - s.start);
    if (s.parent < 0 && s.name == "proto.request") {
      ++line;
      if (line < records.size()) ls.add("protocol.request_us", d * 1e-3);
      continue;
    }
    if (line >= records.size()) continue;
    if (s.name.starts_with("serve.query.")) {
      miss_ns[line] += d;
      continue;
    }
    if (s.parent >= 0) continue;
    if (s.name == "obs.json.parse") {
      ls.add("obs.json.parse_us", d * 1e-3);
    } else if (s.name == "query.parse") {
      ls.add("query.parse_us", d * 1e-3);
    } else if (s.name == "query.key") {
      ls.add("query.key_us", d * 1e-3);
    } else if (s.name == "store.pin") {
      ls.add("store.pin_ns", d);
    } else if (s.name == "index.select") {
      ls.add("index.select_us", d * 1e-3);
      select_ns[line] += d;
    } else if (s.name == "dataset.vehicle_months") {
      ls.add("dataset.vehicle_months_ms", d * 1e-6);
    } else if (s.name.starts_with("core.builder.")) {
      ls.add("core.builder_us." + s.name.substr(13), d * 1e-3);
      builder_ns[line] += d;
    } else if (s.name.starts_with("reliability.")) {
      ls.add(s.name + "_ms", d * 1e-6);
      builder_ns[line] += d;
    } else if (s.name == "pool.submit") {
      const auto& r = records[line];
      ls.add("thread_pool.handoff_us", (d - static_cast<double>(r.hit_latency_ns)) * 1e-3);
    }
  }
  std::size_t hits = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    if (r.hit) {
      ++hits;
      ls.add("engine.hit_us", static_cast<double>(r.hit_latency_ns) * 1e-3);
      continue;
    }
    // A miss: the engine's own serve.query.<kind> span in the real call.
    ls.add("engine.miss_us." + std::string(serve::query_kind_name(r.kind)), miss_ns[i] * 1e-3);
    ls.add("engine.payload_bytes", static_cast<double>(r.payload_bytes));
    ls.add("engine.emit_us", (miss_ns[i] - select_ns[i] - builder_ns[i]) * 1e-3);
  }
  if (!records.empty()) {
    ls.add("cache.hit_ratio", static_cast<double>(hits) / static_cast<double>(records.size()));
  }
}

// Counter deltas of the index and cache over a pass.
void counter_metrics(const avtk::obs::metrics_snapshot& before, serve::query_engine& engine,
                     std::uint64_t evictions_before, layer_stats& ls) {
  const auto after = avtk::obs::metrics().snapshot();
  const double builds = static_cast<double>(after.counter_delta(before, "serve.index.builds"));
  ls.add("index.builds", builds);
  if (builds > 0) {
    ls.add("index.build_ms",
           static_cast<double>(after.counter_delta(before, "serve.index.build_ns")) * 1e-6 / builds);
    ls.add("index.bytes",
           static_cast<double>(after.counter_delta(before, "serve.index.bytes")) / builds);
  }
  ls.add("cache.evictions", static_cast<double>(engine.cache_evictions() - evictions_before));
}

// ---- the four traced passes ---------------------------------------------

struct traced_context {
  corpus_state cs;
  std::vector<serve::query> hot;
  std::uint64_t seed = 0;
  layer_stats ls;  ///< the current pass's samples
  run_result* out = nullptr;
};

line_stream hot_lines(const traced_context& c, std::size_t n) {
  const auto draws = zipf_draws(c.hot.size(), n, c.seed);
  line_stream lines;
  for (std::size_t i = 0; i < n; ++i) lines.push(request_line(c.hot[draws[i]], i));
  return lines;
}

line_stream cold_lines(const traced_context& c, std::size_t n) {
  line_stream lines;
  const auto cold = cold_queries(c.cs.analyzed, n, c.seed);
  for (std::size_t i = 0; i < n; ++i) lines.push(request_line(cold[i], i));
  return lines;
}

// Wall of handle_request_line over `lines` on a fresh engine (warmed with
// the hot set when `warm`), with or without tracing.
std::int64_t replay_wall(const traced_context& c, const line_stream& lines, bool warm,
                         bool traced) {
  tracer t;
  auto engine = make_engine(c.cs.db, 2, traced ? &t.trace : nullptr);
  if (warm) {
    for (const auto& q : c.hot) engine->execute(q);
  }
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (traced) {
      t.span("proto.request", [&] { return serve::handle_request_line(*engine, lines.line(i)); });
    } else {
      serve::handle_request_line(*engine, lines.line(i));
    }
  }
  return now_ns() - t0;
}

pass_summary trace_serve(traced_context& c, bool cold, std::size_t n) {
  const auto lines = cold ? cold_lines(c, n) : hot_lines(c, n);
  tracer t;
  auto engine = make_engine(c.cs.db, 2, &t.trace);
  if (!cold) {
    for (const auto& q : c.hot) engine->execute(q);
  }
  const auto before = avtk::obs::metrics().snapshot();
  const auto evictions = engine->cache_evictions();
  const std::size_t skip = t.trace.size();
  std::vector<query_record> records;
  const std::int64_t wall = traced_queries(t, *engine, lines, 0, lines.size(), records, *c.out);
  counter_metrics(before, *engine, evictions, c.ls);
  auto raw = t.trace.spans();
  raw.erase(raw.begin(), raw.begin() + static_cast<long>(skip));
  const auto spans = nest(raw);
  serve_metrics(spans, records, c.ls);
  return summarize(spans, wall);
}

pass_summary trace_ingest(traced_context& c, std::size_t max_filings) {
  auto filings = build_filings(c.seed);
  if (filings.size() > max_filings) filings.resize(max_filings);
  const auto stream = build_ingest_stream(filings, c.seed);
  tracer t;
  auto engine = make_engine(c.cs.db, 2, &t.trace);
  avtk::ingest::processor_config pcfg;
  pcfg.strict = true;
  pcfg.trace = &t.trace;
  const avtk::ingest::document_processor processor(pcfg);
  processor.classifier();  // built once up front, as the engine's is

  const auto before = avtk::obs::metrics().snapshot();
  const auto evictions = engine->cache_evictions();
  const std::size_t skip = t.trace.size();
  std::vector<query_record> records;
  std::vector<double> process_ms;
  std::int64_t wall = 0;
  for (std::size_t i = 0; i < stream.lines.size(); ++i) {
    const long f = stream.filing_of_line[i];
    if (f < 0) {
      wall += traced_queries(t, *engine, stream.lines, i, i + 1, records, *c.out);
      continue;
    }
    const auto line = stream.lines.line(i);
    const std::int64_t t0 = now_ns();
    const auto resp = t.span("proto.ingest", [&] {
      return serve::handle_request_line(*engine, line);
    });
    wall += now_ns() - t0;
    // Probes: the filing's parse, and a strict process() of its documents
    // on a separate processor (serve.ingest minus process and commit is the
    // engine's own ingest work).
    const auto doc = t.span("obs.json.ingest_parse", [&] { return json::parse(line); });
    const auto* spec = doc->find("ingest");
    auto delivered = avtk::ocr::document::from_text(spec->find("text")->as_string());
    delivered.title = spec->find("title")->as_string();
    auto pristine = avtk::ocr::document::from_text(spec->find("pristine")->as_string());
    pristine.title = delivered.title;
    const std::int64_t p0 = now_ns();
    t.span("ingest.process", [&] { return processor.process(delivered, &pristine).accepted(); });
    process_ms.push_back(ns_to_ms(now_ns() - p0));
    response_line rl;
    inspect_response(resp, rl);
    const auto& fl = filings[static_cast<std::size_t>(f)];
    ++c.out->attempted;
    if (rl.ok == fl.corrupted ||
        (fl.corrupted && rl.code != avtk::error_code_name(fl.expected_code))) {
      c.out->fail("traced filing " + std::to_string(f) + " met the wrong fate");
    }
  }
  counter_metrics(before, *engine, evictions, c.ls);
  const auto after = avtk::obs::metrics().snapshot();
  const double commits = static_cast<double>(after.counter_delta(before, "serve.snapshot.commits"));
  if (commits > 0) {
    c.ls.add("store.commit_ms",
             static_cast<double>(after.counter_delta(before, "serve.snapshot.commit_ns")) * 1e-6 /
                 commits);
  }

  auto raw = t.trace.spans();
  raw.erase(raw.begin(), raw.begin() + static_cast<long>(skip));
  const auto spans = nest(raw);
  serve_metrics(spans, records, c.ls);
  // Per filing: the probe's process() and scan (ocr + parse) split, and the
  // engine's own ingest span with its commit child.
  std::size_t filing = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const auto d = s.end - s.start;
    if (s.name == "obs.json.ingest_parse") {
      c.ls.add("obs.json.ingest_parse_us", ns_to_us(d));
    } else if (s.name == "ingest.process" || s.name == "serve.ingest") {
      std::int64_t ocr = 0, parse = 0, commit = 0;
      for (std::size_t j = i + 1; j < spans.size() && spans[j].start < s.end; ++j) {
        if (spans[j].name.starts_with("ocr")) ocr += spans[j].end - spans[j].start;
        if (spans[j].name == "parse") parse += spans[j].end - spans[j].start;
        if (spans[j].name.starts_with("serve.snapshot.commit")) commit += spans[j].end - spans[j].start;
      }
      if (s.name == "ingest.process") {
        c.ls.add("ingest.process_ms", ns_to_ms(d));
        c.ls.add("ocr.recover_ms", ns_to_ms(ocr));
        c.ls.add("parse.scan_ms", ns_to_ms(parse));
        c.ls.add("nlp.label_ms", ns_to_ms(d - ocr - parse));
      } else if (filing < process_ms.size()) {
        c.ls.add("engine.ingest_ms", ns_to_ms(d));
        c.ls.add("engine.invalidate_ms", ns_to_ms(d - commit) - process_ms[filing++]);
      }
    }
  }
  return summarize(spans, wall);
}

// Traced run_pipeline runs (parallelism 4) against untraced ones; the
// stage spans are sequential children of "pipeline", so their self times
// must cover the call's wall time.
pass_summary trace_batch(traced_context& c, int runs, double* overhead) {
  const auto& corpus = c.cs.corpus;
  std::vector<double> traced_ms, plain_ms;
  std::map<std::string, std::vector<double>> stage_ms;
  pass_summary p;
  std::uint64_t reference = 0;
  for (int r = 0; r < runs; ++r) {
    avtk::core::pipeline_config cfg;
    cfg.parallelism = 4;
    std::int64_t t0 = now_ns();
    const auto plain = avtk::core::run_pipeline(corpus.documents, corpus.pristine_documents, cfg);
    plain_ms.push_back(ns_to_ms(now_ns() - t0));
    tracer t;
    cfg.trace = &t.trace;
    t0 = now_ns();
    const auto traced = avtk::core::run_pipeline(corpus.documents, corpus.pristine_documents, cfg);
    const std::int64_t wall = now_ns() - t0;
    traced_ms.push_back(ns_to_ms(wall));
    for (const auto& st : traced.stats.stage_timings) stage_ms[st.stage].push_back(st.seconds * 1e3);

    if (r == 0) reference = database_digest(plain.database);
    ++c.out->attempted;
    if (database_digest(traced.database) != reference ||
        database_digest(plain.database) != reference) {
      c.out->fail("traced pipeline output differs from the untraced run");
    }
    // Coverage from the top-level stages (children of the root span).
    const auto spans = t.trace.spans();
    std::uint64_t root = 0;
    std::int64_t scan_ns = 0;
    for (const auto& s : spans) {
      if (s.name == "pipeline") root = s.id;
      if (s.name == "scan") scan_ns = s.duration_ns;
    }
    std::int64_t stages = 0;
    for (const auto& s : spans) {
      if (s.parent == root && root != 0) {
        stages += s.duration_ns;
        p.self_ms["pipeline." + s.name] += ns_to_ms(s.duration_ns);
      }
    }
    p.wall_ms += ns_to_ms(wall);
    p.coverage += static_cast<double>(stages) / static_cast<double>(wall) / runs;
    if (r == 0) {
      // Per-document scan cost and balance across the 4 scan workers.
      const avtk::ingest::document_processor processor;
      double sum = 0, max = 0;
      for (std::size_t i = 0; i < corpus.documents.size(); ++i) {
        const std::int64_t d0 = now_ns();
        processor.scan(corpus.documents[i], &corpus.pristine_documents[i], i);
        const double d = ns_to_ms(now_ns() - d0);
        sum += d;
        max = std::max(max, d);
      }
      c.ls.add("pipeline.doc_scan_max_ms", max);
      c.ls.add("pipeline.scan_balance", sum / (4.0 * ns_to_ms(scan_ns)));
    }
  }
  for (const auto& [stage, v] : stage_ms) c.ls.add("pipeline." + stage + "_ms", median(v));
  if (overhead != nullptr) *overhead = median(traced_ms) / median(plain_ms) - 1.0;
  return p;
}

// The per-layer metrics every traced run reports, in output order.
const char* const k_layer_metrics[][2] = {
    {"protocol.request_us", "us"},      {"obs.json.parse_us", "us"},
    {"obs.json.ingest_parse_us", "us"}, {"query.parse_us", "us"},
    {"query.key_us", "us"},             {"thread_pool.handoff_us", "us"},
    {"engine.hit_us", "us"},            {"store.pin_ns", "ns"},
    {"cache.hit_ratio", "ratio"},       {"cache.evictions", "count"},
    {"engine.miss_us.metrics", "us"},   {"engine.miss_us.tags", "us"},
    {"engine.miss_us.categories", "us"}, {"engine.miss_us.modality", "us"},
    {"engine.miss_us.trend", "us"},     {"engine.miss_us.fit", "us"},
    {"engine.miss_us.compare", "us"},   {"engine.miss_us.mcf", "us"},
    {"engine.miss_us.nhpp", "us"},      {"index.select_us", "us"},
    {"index.build_ms", "ms"},           {"index.builds", "count"},
    {"index.bytes", "bytes"},           {"dataset.vehicle_months_ms", "ms"},
    {"core.builder_us.metrics", "us"},  {"core.builder_us.tags", "us"},
    {"core.builder_us.categories", "us"}, {"core.builder_us.modality", "us"},
    {"core.builder_us.trend", "us"},    {"core.builder_us.fit", "us"},
    {"core.builder_us.compare", "us"},  {"reliability.mcf_ms", "ms"},
    {"reliability.nhpp_ms", "ms"},      {"engine.emit_us", "us"},
    {"engine.payload_bytes", "bytes"},  {"ingest.process_ms", "ms"},
    {"ocr.recover_ms", "ms"},           {"parse.scan_ms", "ms"},
    {"nlp.label_ms", "ms"},             {"store.commit_ms", "ms"},
    {"engine.ingest_ms", "ms"},         {"engine.invalidate_ms", "ms"},
    {"pipeline.ocr_ms", "ms"},          {"pipeline.parse_ms", "ms"},
    {"pipeline.merge_ms", "ms"},        {"pipeline.normalize_ms", "ms"},
    {"pipeline.ingest_ms", "ms"},       {"pipeline.classify_ms", "ms"},
    {"pipeline.classify.build_ms", "ms"}, {"pipeline.classify.label_ms", "ms"},
    {"pipeline.analysis_ms", "ms"},     {"pipeline.doc_scan_max_ms", "ms"},
    {"pipeline.scan_balance", "ratio"}, {"dataset.generate_ms", "ms"},
    {"setup.pipeline_s", "s"},          {"setup.engine_ms", "ms"},
    {"setup.prime_ms", "ms"},           {"trace.overhead_frac", "ratio"},
    {"trace.coverage", "ratio"},        {"bench.gen_late_us", "us"},
    {"bench.backlog", "count"},
};

}  // namespace

run_result trace_layers(workload w, std::uint64_t seed, double seconds) {
  run_result r;
  traced_context c;
  c.seed = seed;
  c.out = &r;

  // Set-up, timed piece by piece.
  layer_stats merged;
  c.cs = build_corpus_state();
  merged.add("dataset.generate_ms", c.cs.generate_s * 1e3);
  merged.add("setup.pipeline_s", c.cs.pipeline_s);
  c.hot = hot_queries(c.cs.analyzed);
  {
    std::int64_t t0 = now_ns();
    auto engine = make_engine(c.cs.db);
    merged.add("setup.engine_ms", ns_to_ms(now_ns() - t0));
    t0 = now_ns();
    for (const auto& q : c.hot) engine->execute(q);
    merged.add("setup.prime_ms", ns_to_ms(now_ns() - t0));
  }

  // The selected workload's pass, sized from the run's seconds, then short
  // passes over the other paths. Pass sizes were chosen so a 10 s run
  // spends about half its time in the selected pass.
  const double scale = std::max(0.2, seconds / 10.0);
  const auto size = [&](workload p, double full, double brief) {
    return static_cast<std::size_t>(p == w ? full * scale : brief);
  };
  pass_summary own;
  double overhead = 0;
  std::vector<workload> order = {w};
  for (const auto p : {workload::serve_hot, workload::serve_cold, workload::ingest_live,
                       workload::batch_run}) {
    if (p != w) order.push_back(p);
  }
  for (const auto p : order) {
    c.ls = layer_stats{};
    pass_summary s;
    switch (p) {
      case workload::serve_hot: {
        const std::size_t n = size(p, 20000, 2000);
        s = trace_serve(c, false, n);
        if (p == w) {
          const auto lines = hot_lines(c, n);
          overhead = static_cast<double>(replay_wall(c, lines, true, true)) /
                         static_cast<double>(replay_wall(c, lines, true, false)) -
                     1.0;
        }
        break;
      }
      case workload::serve_cold: {
        const std::size_t n = size(p, 600, 80);
        s = trace_serve(c, true, n);
        if (p == w) {
          const auto lines = cold_lines(c, n);
          overhead = static_cast<double>(replay_wall(c, lines, false, true)) /
                         static_cast<double>(replay_wall(c, lines, false, false)) -
                     1.0;
        }
        break;
      }
      case workload::ingest_live: {
        s = trace_ingest(c, size(p, 1000, 40));
        if (p == w) {
          // Overhead: the same stream through handle_request_line, with and
          // without the engine's trace attached.
          const auto filings = build_filings(seed);
          const auto stream = build_ingest_stream(filings, seed);
          overhead = static_cast<double>(replay_wall(c, stream.lines, false, true)) /
                         static_cast<double>(replay_wall(c, stream.lines, false, false)) -
                     1.0;
        }
        break;
      }
      case workload::batch_run:
        s = trace_batch(c, p == w ? std::max(3, static_cast<int>(3 * scale)) : 1,
                        p == w ? &overhead : nullptr);
        break;
    }
    if (p == w) own = s;
    // The traced workload's own samples win; the short passes only fill
    // in the layers its path never reaches.
    for (auto& [name, v] : c.ls.samples) {
      if (!merged.has(name)) merged.samples[name] = std::move(v);
    }
  }

  // Health of the load generator: one short open-loop pass of the traced
  // workload's serve path at its fixed rate (serve_hot's for batch_run).
  {
    auto engine = make_engine(c.cs.db);
    line_stream lines;
    std::vector<std::int64_t> due;
    if (w == workload::serve_cold) {
      lines = cold_lines(c, 300);
      due = fixed_rate_due(lines.size(), k_cold_rate);
    } else if (w == workload::ingest_live) {
      lines = build_ingest_stream(build_filings(seed), seed).lines;
      due = fixed_rate_due(lines.size(), k_ingest_rate);
    } else {
      for (const auto& q : c.hot) engine->execute(q);
      lines = hot_lines(c, 30000);
      due = fixed_rate_due(lines.size(), k_hot_rate);
    }
    const auto pass = run_pass(*engine, lines, &due, lines.size());
    std::vector<double> late;
    for (const auto v : pass.wake_late_ns) late.push_back(ns_to_us(v));
    merged.add("bench.gen_late_us", median(late));
    merged.add("bench.backlog", static_cast<double>(pass.backlog));
  }

  merged.add("trace.overhead_frac", overhead);
  merged.add("trace.coverage", own.coverage);
  for (const auto& m : k_layer_metrics) {
    if (!merged.has(m[0])) r.fail(std::string("per-layer metric ") + m[0] + " was not measured");
    r.add(m[0], merged.mean(m[0]), m[1]);
  }
  r.note("traced_wall_ms", own.wall_ms, "ms");
  for (const auto& [layer, ms] : own.self_ms) r.note("self_ms." + layer, ms, "ms");
  // Attribution health, not a property of the program's outputs: printed,
  // not counted as a failure.
  if (std::abs(own.coverage - 1.0) > 0.10) {
    std::printf("WARNING: layer self times cover %.3f of the traced wall (want 1 +- 0.10)\n",
                own.coverage);
  }
  return r;
}

}  // namespace avbench
