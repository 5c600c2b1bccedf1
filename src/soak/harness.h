// avtk/soak/harness.h
//
// The soak harness: drive a live serve engine with the workload
// soak/workload.h generates, the way production would — one paced ingest
// session streaming month-ordered filings through run_serve_loop while N
// client threads issue a weighted wire-level query mix against the same
// engine — and account for every byte that comes back.
//
// Two passes run against engines seeded with the same fleet database:
//
//   ingest_off   queries only; the latency/QPS baseline.
//   ingest_on    the same query stream with the paced ingest session (and
//                its chaos leg) running concurrently.
//
// The ingest session is duty-cycle paced: after each document the stream
// sleeps for the document's own processing time scaled by
// (1 - duty_cycle) / duty_cycle, so the stream holds roughly the
// configured CPU duty cycle on any machine: an unpaced stream on a small
// runner would measure scheduler preemption, not store behavior.
//
// What the report asserts, exactly:
//
//   chaos containment   every corrupted document is rejected with its
//                       inject-manifest taxonomy code; zero clean
//                       documents are rejected.
//   epoch accounting    the engine's epoch is sampled between every two
//                       documents of the ingest session (the serve loop
//                       processes them synchronously, so the samples
//                       interleave exactly): epochs are monotone and
//                       advance by exactly one per accepted document,
//                       zero per reject.
//   shard confinement   (sharded engines) every accepted document advances
//                       exactly its maker's shard epoch by one; no other
//                       shard's epoch moves during the stream.
//   payload stability   within a pass, two responses carrying the same
//                       (canonical query, version vector) are
//                       byte-identical — the warm-cache contract holding
//                       under continuous invalidation churn.
//   stream integrity    the ingest session's responses echo their request
//                       ids in order and the loop completes un-aborted.
//
// soak_record_json renders the whole thing as the avtk.bench.v1
// BENCH_soak record that .github/workflows/check_soak.py gates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/json.h"
#include "serve/protocol.h"
#include "soak/workload.h"

namespace avtk::soak {

struct soak_options {
  unsigned query_threads = 2;
  /// Minimum queries per thread per pass; under ingest-on the threads keep
  /// querying until the ingest stream completes.
  int queries_per_thread = 100;
  /// Target CPU duty cycle of the ingest stream, in (0, 1].
  double duty_cycle = 0.05;
  /// Floor on the inter-document gap (a zero-burst document still yields).
  int pace_floor_ms = 2;
  unsigned engine_threads = 2;
  std::size_t cache_capacity = 1024;
  /// Snapshot-store shards for both passes' engines (serve/store.h).
  std::size_t shards = 1;
};

/// One pass's measurements.
struct soak_pass_stats {
  std::size_t queries = 0;
  double seconds = 0;
  double qps = 0;
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double cache_hit_rate = 0;  ///< hits / (hits + misses), 0 when idle
  std::uint64_t epochs_advanced = 0;
  std::uint64_t snapshots_retired = 0;
  std::size_t ingest_accepted = 0;
  std::size_t ingest_rejected = 0;
  bool query_responses_ok = true;  ///< every query answered {"ok":true}
};

/// Exact chaos containment over the ingest session's responses.
struct chaos_accounting {
  std::size_t documents = 0;
  std::size_t corrupted = 0;
  std::size_t clean = 0;
  std::size_t corrupted_rejected = 0;  ///< corrupted docs answered ok:false
  std::size_t code_matches = 0;        ///< ... with the exact manifest code
  std::size_t clean_rejected = 0;      ///< clean docs answered ok:false
  std::size_t clean_accepted = 0;

  /// Every fault contained with its manifest code, no collateral damage.
  bool exact() const {
    return corrupted_rejected == corrupted && code_matches == corrupted &&
           clean_rejected == 0 && clean_accepted == clean;
  }
};

struct soak_invariants {
  bool epochs_monotone = true;
  bool epoch_per_accepted_doc = true;
  bool payloads_stable = true;
  bool ingest_stream_ordered = true;  ///< response ids echo request order
  bool loop_completed = true;         ///< un-aborted, one response per request
  /// Sharded engines only (trivially true otherwise): every accepted
  /// document advances exactly its maker's shard epoch by one — no other
  /// shard's epoch moves during the stream.
  bool epochs_confined_to_shard = true;

  bool all() const {
    return epochs_monotone && epoch_per_accepted_doc && payloads_stable &&
           ingest_stream_ordered && loop_completed && epochs_confined_to_shard;
  }
};

struct soak_report {
  soak_pass_stats ingest_off;
  soak_pass_stats ingest_on;
  double p99_on_over_off = 0;
  chaos_accounting chaos;
  soak_invariants invariants;
  serve::serve_loop_stats loop;  ///< the ingest session's loop stats

  bool ok() const {
    return chaos.exact() && invariants.all() && ingest_off.query_responses_ok &&
           ingest_on.query_responses_ok;
  }
};

/// Runs both passes and the full accounting described in the header.
soak_report run_soak(const soak_workload& workload, const soak_options& options);

/// The avtk.bench.v1 record for BENCH_soak.json (includes a metrics
/// snapshot of the process-wide registry).
obs::json::value soak_record_json(const soak_workload& workload, const soak_options& options,
                                  const soak_report& report);

/// Human-readable multi-line summary for stdout.
std::string render_soak_summary(const soak_workload& workload, const soak_report& report);

}  // namespace avtk::soak
