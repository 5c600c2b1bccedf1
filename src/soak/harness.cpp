#include "soak/harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <istream>
#include <map>
#include <sstream>
#include <streambuf>
#include <thread>
#include <utility>
#include <vector>

#include "obs/clock.h"
#include "obs/export.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "util/rng.h"

namespace avtk::soak {

namespace json = obs::json;

namespace {

// Cap on the inter-document gap, so a pathological burst cannot stall the
// stream.
constexpr int k_pace_cap_ms = 2000;
// Query client t draws its request lines from rng(k_query_seed + t).
constexpr std::uint64_t k_query_seed = 7;

// Feeds run_serve_loop one request line at a time, sleeping between lines
// so the ingest stream holds the configured duty cycle: the gap after each
// document is that document's own processing time (measured as the time
// between two underflows — the loop ingests synchronously, so nothing else
// happens in between) scaled by (1 - d) / d. `between` fires on the loop
// thread before line `n` is delivered — i.e. after documents 0..n-1 have
// been fully processed, and once more at EOF — which is what lets the
// harness sample the engine's epoch between every two documents.
class paced_request_buf : public std::streambuf {
 public:
  paced_request_buf(const std::vector<soak_document>& documents, double duty_cycle, int floor_ms,
                    std::function<void(std::size_t)> between)
      : documents_(documents),
        pace_ratio_(duty_cycle < 1.0 ? (1.0 - duty_cycle) / duty_cycle : 0.0),
        floor_ms_(floor_ms),
        between_(std::move(between)) {}

 protected:
  int_type underflow() override {
    if (next_ >= documents_.size()) {
      if (!eof_sampled_) {
        eof_sampled_ = true;
        if (between_) between_(next_);
      }
      return traits_type::eof();
    }
    if (next_ > 0) {
      const double burst_ms = burst_.elapsed_seconds() * 1000.0;
      const auto gap_ms = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(burst_ms * pace_ratio_), floor_ms_, k_pace_cap_ms);
      std::this_thread::sleep_for(std::chrono::milliseconds(gap_ms));
    }
    if (between_) between_(next_);
    line_ = documents_[next_].request_line;
    line_ += '\n';
    ++next_;
    setg(line_.data(), line_.data(), line_.data() + line_.size());
    burst_.restart();
    return traits_type::to_int_type(line_.front());
  }

 private:
  const std::vector<soak_document>& documents_;
  const double pace_ratio_;
  const int floor_ms_;
  std::function<void(std::size_t)> between_;
  std::size_t next_ = 0;
  bool eof_sampled_ = false;
  std::string line_;
  obs::stopwatch burst_;
};

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct query_thread_result {
  std::vector<std::int64_t> latency_ns;
  /// (canonical query + version vector) -> response-line hash. Merged
  /// across threads afterwards; a collision with a different hash means a
  /// warm response diverged from the cold one.
  std::map<std::string, std::uint64_t> payload_hashes;
  bool responses_ok = true;
  bool payloads_stable = true;
};

// The per-document outcome of the ingest session, recovered from the wire.
struct ingest_outcome {
  bool ok = false;
  std::string code;  ///< taxonomy code for rejects
  std::int64_t id = -1;
};

// One pass: N client threads drain the pre-serialized query lines through
// handle_request_line while (under ingest_on) the paced ingest session
// streams the workload into the same engine via run_serve_loop.
soak_pass_stats run_pass(bool ingest_on, const soak_workload& workload,
                         const soak_options& options,
                         const std::vector<std::string>& query_lines,
                         chaos_accounting* chaos, soak_invariants* invariants,
                         serve::serve_loop_stats* loop_out) {
  serve::engine_config cfg;
  cfg.threads = options.engine_threads;
  cfg.cache_capacity = options.cache_capacity;
  cfg.shards = options.shards;
  serve::query_engine engine(workload.fleet.database, cfg);

  const auto metrics_before = obs::metrics().snapshot();
  const auto epoch_before = engine.epoch();

  soak_pass_stats pass;
  std::atomic<bool> stream_done{!ingest_on};

  // Epoch samples bracketing every document of the ingest session:
  // samples[i] is the epoch after documents 0..i-1 (so samples.front() is
  // the pre-stream epoch and samples.back() the post-stream one). Sharded
  // engines additionally sample the full per-shard epoch vector at the same
  // points, for the shard-confinement invariant.
  std::vector<std::uint64_t> epoch_samples;
  std::vector<std::vector<std::uint64_t>> epoch_vector_samples;
  std::ostringstream responses;
  serve::serve_loop_stats loop_stats;

  std::thread ingester;
  if (ingest_on) {
    ingester = std::thread([&] {
      paced_request_buf buf(workload.documents, options.duty_cycle, options.pace_floor_ms,
                            [&](std::size_t) {
                              epoch_samples.push_back(engine.epoch());
                              if (engine.shards() > 1) {
                                epoch_vector_samples.push_back(engine.epochs());
                              }
                            });
      std::istream in(&buf);
      serve::serve_loop_options loop_options;
      loop_options.on_ingest_error = ingest::error_policy::quarantine;
      loop_stats = serve::run_serve_loop(engine, in, responses, loop_options);
      stream_done.store(true, std::memory_order_relaxed);
    });
  }

  std::vector<query_thread_result> per_thread(options.query_threads);
  const obs::stopwatch watch;
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < options.query_threads; ++t) {
    clients.emplace_back([&, t] {
      auto& mine = per_thread[t];
      mine.latency_ns.reserve(static_cast<std::size_t>(options.queries_per_thread));
      rng gen(k_query_seed + t);
      for (int i = 0;
           i < options.queries_per_thread || !stream_done.load(std::memory_order_relaxed); ++i) {
        const auto& line = query_lines[static_cast<std::size_t>(
            gen.uniform_int(0, static_cast<std::int64_t>(query_lines.size()) - 1))];
        const obs::stopwatch one;
        const auto response = serve::handle_request_line(engine, line);
        mine.latency_ns.push_back(one.elapsed_ns());

        const auto doc = json::parse(response);
        const auto* ok = doc ? doc->find("ok") : nullptr;
        if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
          mine.responses_ok = false;
          continue;
        }
        const auto* canonical = doc->find("query");
        const auto* version = doc->find("version");
        if (canonical == nullptr || version == nullptr) {
          mine.responses_ok = false;
          continue;
        }
        // Query requests carry no id, so the whole envelope is a function
        // of (canonical, version): hashing the full line checks the warm
        // payload byte-for-byte against the cold one.
        const auto key = canonical->as_string() + "@" + version->as_string();
        const auto hash = fnv1a(response);
        const auto [it, inserted] = mine.payload_hashes.emplace(key, hash);
        if (!inserted && it->second != hash) mine.payloads_stable = false;
      }
    });
  }
  for (auto& c : clients) c.join();
  pass.seconds = watch.elapsed_seconds();
  if (ingester.joinable()) ingester.join();

  // Merge the per-thread measurements.
  std::vector<std::int64_t> latencies;
  std::map<std::string, std::uint64_t> merged;
  for (const auto& thread_result : per_thread) {
    latencies.insert(latencies.end(), thread_result.latency_ns.begin(),
                     thread_result.latency_ns.end());
    if (!thread_result.responses_ok) pass.query_responses_ok = false;
    if (!thread_result.payloads_stable && invariants != nullptr) {
      invariants->payloads_stable = false;
    }
    for (const auto& [key, hash] : thread_result.payload_hashes) {
      const auto [it, inserted] = merged.emplace(key, hash);
      if (!inserted && it->second != hash && invariants != nullptr) {
        invariants->payloads_stable = false;
      }
    }
  }
  pass.queries = latencies.size();
  pass.qps = obs::queries_per_second(pass.queries, pass.seconds);
  pass.p50_ns = obs::latency_percentile_ns(latencies, 0.50);
  pass.p99_ns = obs::latency_percentile_ns(std::move(latencies), 0.99);

  const auto metrics_after = obs::metrics().snapshot();
  pass.cache_hits = metrics_after.counter_delta(metrics_before, "serve.cache_hits");
  pass.cache_misses = metrics_after.counter_delta(metrics_before, "serve.cache_misses");
  const auto lookups = pass.cache_hits + pass.cache_misses;
  pass.cache_hit_rate =
      lookups > 0 ? static_cast<double>(pass.cache_hits) / static_cast<double>(lookups) : 0.0;
  pass.snapshots_retired = metrics_after.counter_delta(metrics_before, "serve.snapshot.retired");
  pass.epochs_advanced = engine.epoch() - epoch_before;

  if (!ingest_on) return pass;

  // ---- ingest-session accounting (wire side) ----
  if (loop_out != nullptr) *loop_out = loop_stats;

  std::vector<ingest_outcome> outcomes;
  {
    std::istringstream lines(responses.str());
    std::string line;
    while (std::getline(lines, line)) {
      ingest_outcome o;
      if (const auto doc = json::parse(line)) {
        if (const auto* ok = doc->find("ok"); ok != nullptr && ok->is_bool()) {
          o.ok = ok->as_bool();
        }
        if (const auto* code = doc->find("code"); code != nullptr && code->is_string()) {
          o.code = code->as_string();
        }
        if (const auto* id = doc->find("id"); id != nullptr && id->is_number()) {
          o.id = static_cast<std::int64_t>(id->as_number());
        }
      }
      outcomes.push_back(std::move(o));
    }
  }

  if (invariants != nullptr) {
    invariants->loop_completed =
        !loop_stats.aborted && outcomes.size() == workload.documents.size();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].id != static_cast<std::int64_t>(i)) {
        invariants->ingest_stream_ordered = false;
      }
    }
    // Per-document epoch accounting: the samples bracket each document, so
    // an accepted document must advance the epoch by exactly one and a
    // reject by exactly zero. Only meaningful when the stream completed.
    if (epoch_samples.size() == workload.documents.size() + 1 &&
        outcomes.size() == workload.documents.size()) {
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (epoch_samples[i + 1] < epoch_samples[i]) invariants->epochs_monotone = false;
        const auto advanced = epoch_samples[i + 1] - epoch_samples[i];
        if (advanced != (outcomes[i].ok ? 1u : 0u)) {
          invariants->epoch_per_accepted_doc = false;
        }
      }
    } else {
      invariants->epoch_per_accepted_doc = false;
    }
    // Shard confinement: the workload's documents all carry one maker, so
    // every accepted document must advance exactly that maker's shard —
    // and nothing else moves while the stream runs.
    if (options.shards > 1) {
      if (epoch_vector_samples.size() == workload.documents.size() + 1 &&
          outcomes.size() == workload.documents.size()) {
        const std::size_t home = serve::shard_of(workload.maker, options.shards);
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
          const auto& before = epoch_vector_samples[i];
          const auto& after = epoch_vector_samples[i + 1];
          for (std::size_t s = 0; s < before.size(); ++s) {
            const std::uint64_t want = (s == home && outcomes[i].ok) ? 1u : 0u;
            if (after[s] - before[s] != want) invariants->epochs_confined_to_shard = false;
          }
        }
      } else {
        invariants->epochs_confined_to_shard = false;
      }
    }
  }

  if (chaos != nullptr) {
    chaos->documents = workload.documents.size();
    chaos->corrupted = workload.corrupted_documents;
    chaos->clean = workload.clean_documents;
    for (std::size_t i = 0; i < outcomes.size() && i < workload.documents.size(); ++i) {
      const auto& doc = workload.documents[i];
      const auto& outcome = outcomes[i];
      if (doc.corrupted) {
        if (!outcome.ok) {
          ++chaos->corrupted_rejected;
          if (outcome.code == error_code_name(doc.expected_code)) ++chaos->code_matches;
        }
      } else {
        if (outcome.ok) {
          ++chaos->clean_accepted;
        } else {
          ++chaos->clean_rejected;
        }
      }
    }
  }

  pass.ingest_accepted = loop_stats.ingests - loop_stats.ingest_rejected;
  pass.ingest_rejected = loop_stats.ingest_rejected;
  return pass;
}

json::value pass_json(const soak_pass_stats& pass) {
  return json::value(json::object{
      {"queries", json::value(pass.queries)},
      {"seconds", json::value(pass.seconds)},
      {"qps", json::value(pass.qps)},
      {"p50_ns", json::value(pass.p50_ns)},
      {"p99_ns", json::value(pass.p99_ns)},
      {"cache_hits", json::value(pass.cache_hits)},
      {"cache_misses", json::value(pass.cache_misses)},
      {"cache_hit_rate", json::value(pass.cache_hit_rate)},
      {"epochs_advanced", json::value(pass.epochs_advanced)},
      {"snapshots_retired", json::value(pass.snapshots_retired)},
      {"ingest_accepted", json::value(pass.ingest_accepted)},
      {"ingest_rejected", json::value(pass.ingest_rejected)},
      {"query_responses_ok", json::value(pass.query_responses_ok)},
  });
}

}  // namespace

soak_report run_soak(const soak_workload& workload, const soak_options& options) {
  if (options.query_threads < 1) throw logic_error("soak needs at least one query thread");
  if (!(options.duty_cycle > 0.0) || options.duty_cycle > 1.0) {
    throw logic_error("soak duty_cycle must be in (0, 1]");
  }

  const auto mix = build_query_mix(workload.maker);
  std::vector<std::string> query_lines;
  query_lines.reserve(mix.size());
  for (const auto& q : mix) query_lines.push_back(query_request_line(q));

  soak_report report;
  report.ingest_off =
      run_pass(false, workload, options, query_lines, nullptr, nullptr, nullptr);
  report.ingest_on = run_pass(true, workload, options, query_lines, &report.chaos,
                              &report.invariants, &report.loop);
  report.p99_on_over_off =
      report.ingest_off.p99_ns > 0
          ? static_cast<double>(report.ingest_on.p99_ns) /
                static_cast<double>(report.ingest_off.p99_ns)
          : 0.0;
  return report;
}

obs::json::value soak_record_json(const soak_workload& workload, const soak_options& options,
                                  const soak_report& report) {
  const auto& inv = report.invariants;
  const auto& chaos = report.chaos;
  return json::value(json::object{
      {"schema", json::value("avtk.bench.v1")},
      {"experiment", json::value("soak")},
      {"soak",
       json::value(json::object{
           {"months", json::value(workload.fleet.months)},
           {"fleet_miles", json::value(workload.fleet.total_miles)},
           {"documents", json::value(workload.documents.size())},
           {"query_threads", json::value(static_cast<std::int64_t>(options.query_threads))},
           {"duty_cycle", json::value(options.duty_cycle)},
           {"shards", json::value(static_cast<std::int64_t>(options.shards))},
           {"ingest_off", pass_json(report.ingest_off)},
           {"ingest_on", pass_json(report.ingest_on)},
           {"p99_on_over_off", json::value(report.p99_on_over_off)},
           {"chaos",
            json::value(json::object{
                {"documents", json::value(chaos.documents)},
                {"corrupted", json::value(chaos.corrupted)},
                {"clean", json::value(chaos.clean)},
                {"corrupted_rejected", json::value(chaos.corrupted_rejected)},
                {"code_matches", json::value(chaos.code_matches)},
                {"clean_rejected", json::value(chaos.clean_rejected)},
                {"clean_accepted", json::value(chaos.clean_accepted)},
                {"exact", json::value(chaos.exact())},
            })},
           {"invariants",
            json::value(json::object{
                {"epochs_monotone", json::value(inv.epochs_monotone)},
                {"epoch_per_accepted_doc", json::value(inv.epoch_per_accepted_doc)},
                {"payloads_stable", json::value(inv.payloads_stable)},
                {"ingest_stream_ordered", json::value(inv.ingest_stream_ordered)},
                {"loop_completed", json::value(inv.loop_completed)},
                {"epochs_confined_to_shard", json::value(inv.epochs_confined_to_shard)},
            })},
           {"ok", json::value(report.ok())},
       })},
      {"metrics", obs::snapshot_to_json_value(obs::metrics().snapshot())},
  });
}

std::string render_soak_summary(const soak_workload& workload, const soak_report& report) {
  char buf[512];
  std::string out = "==== soak: simulator-driven mixed workload ====\n";
  std::snprintf(buf, sizeof(buf),
                "workload: %zu documents (%zu clean, %zu corrupted), %.0f fleet miles\n",
                workload.documents.size(), workload.clean_documents,
                workload.corrupted_documents, workload.fleet.total_miles);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "ingest off: %zu queries in %.2fs (%.0f qps), p50 %lld ns, p99 %lld ns, "
                "hit rate %.2f\n",
                report.ingest_off.queries, report.ingest_off.seconds, report.ingest_off.qps,
                static_cast<long long>(report.ingest_off.p50_ns),
                static_cast<long long>(report.ingest_off.p99_ns),
                report.ingest_off.cache_hit_rate);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "ingest on:  %zu queries in %.2fs (%.0f qps), p50 %lld ns, p99 %lld ns, "
                "hit rate %.2f\n",
                report.ingest_on.queries, report.ingest_on.seconds, report.ingest_on.qps,
                static_cast<long long>(report.ingest_on.p50_ns),
                static_cast<long long>(report.ingest_on.p99_ns),
                report.ingest_on.cache_hit_rate);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "ingest on:  %zu accepted, %zu rejected, %llu epochs, %llu snapshots retired, "
                "p99 on/off %.2f\n",
                report.ingest_on.ingest_accepted, report.ingest_on.ingest_rejected,
                static_cast<unsigned long long>(report.ingest_on.epochs_advanced),
                static_cast<unsigned long long>(report.ingest_on.snapshots_retired),
                report.p99_on_over_off);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "chaos: %zu/%zu faults contained with manifest codes, %zu clean rejects\n",
                report.chaos.code_matches, report.chaos.corrupted, report.chaos.clean_rejected);
  out += buf;
  out += std::string("invariants: ") + (report.ok() ? "ok" : "VIOLATED") + "\n";
  return out;
}

}  // namespace avtk::soak
