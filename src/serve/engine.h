// avtk/serve/engine.h
//
// The embedded analytics query engine: ingests a consolidated
// failure_database once, then answers typed Stage-IV queries (serve/query.h)
// from a fixed-size worker pool through a sharded, memoized result cache.
//
// Consistency model: snapshot isolation over an epoch-published store
// (serve/store.h). The database is never locked for reading — a query
// pins the currently published immutable snapshot (a shared_ptr copy under
// a publish mutex that a commit holds only for its pointer swap) and
// computes entirely against that frozen state, so concurrent ingests never
// stall queries on their build and a query can never observe a torn or
// in-progress ingest. The per-domain version vector a response
// reports (and the cache key it is memoized under) is the pinned
// snapshot's by construction, so a cached payload is always consistent
// with the version in its key.
//
// Ingests build the next epoch off to the side — the domain arrays are
// copy-on-write, so untouched domains are shared structurally with every
// older epoch — and publish it with a single pointer swap under a
// writer-only commit mutex. The epoch and every version component are
// therefore monotone; a rejected ingest publishes nothing. Appending to
// one domain bumps only that domain's version, which (a) redirects
// dependent queries to fresh cache keys and (b) eagerly drops the
// now-unreachable dependent entries; results derived from untouched
// domains keep serving from cache. Superseded snapshots free when their
// last pinned reader drops (RCU-by-refcount; no reader waits for a build).
//
// The store is partitioned by manufacturer into engine_config::shards
// shards (serve/store.h), and every shard count, K = 1 included, runs one
// execution path: route the query to its shards (the maker's, or all),
// take one selection per shard (the epoch's index for a filtered query,
// the whole shard otherwise), merge by global record id (the identity for
// one shard), render. Ingests commit on the shard a record's maker lives
// in (parallel across makers), and cache keys carry per-shard version
// components so a maker-A ingest never evicts maker-B entries. Payloads
// are byte-identical at every K.
//
// A query runs in two halves. try_hit (pin, route, key, cache get) is
// cheap and runs on the calling thread; run_miss (select, merge, render,
// cache put) runs only on a miss, against the pin and key try_hit took.
// execute() is the two back to back; the serve loop's reader thread runs
// try_hit itself and sends only misses to the pool (serve/protocol.h).
// try_hit works in a query_lookup its caller owns and reuses: the pins and
// the key are rebuilt in place, and a hit copies neither the query nor its
// canonical form, so the reader answers a hit without allocating.
//
// Every query records an obs span (when a trace is attached) and hit/miss,
// latency and cache-occupancy metrics in the global obs registry under the
// "serve." prefix; commits additionally record serve.snapshot.* metrics.
// A query's latency_ns is its try_hit time plus, on a miss, its run_miss
// time; the wait for a pool worker in between is not part of it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/database.h"
#include "ingest/processor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ocr/document.h"
#include "serve/cache.h"
#include "serve/query.h"
#include "serve/store.h"
#include "serve/thread_pool.h"

namespace avtk::serve {

struct engine_config {
  /// Worker threads for submit(); 0 means hardware concurrency.
  unsigned threads = 0;
  /// Total result-cache entries across shards.
  std::size_t cache_capacity = 1024;
  /// Cache shards (1 gives exact global LRU; more bounds lock contention).
  std::size_t cache_shards = 8;
  /// When non-null, every executed query records a "serve.query.<kind>"
  /// span here (cache hits record "serve.hit.<kind>"); raw-document
  /// ingestion records "serve.ingest" spans.
  obs::trace* trace = nullptr;
  /// Raw-document ingestion path (ingest_document). `strict` and `trace`
  /// are overridden at construction: a live append always scans strictly,
  /// and the processor shares the engine's trace.
  ingest::processor_config ingest{};
  /// Snapshot-store shards (serve/store.h). K > 1 partitions records by
  /// manufacturer so ingests for different makers commit in parallel
  /// (ShardedStore.CommitsOnDistinctShardsDoNotSerialize). Payloads are
  /// byte-identical at every K: ShardedEquivalence.* compares K = 2, 4, 7
  /// against K = 1, and ctest cli.serve_sharded_equality does so over the
  /// smoke batch.
  std::size_t shards = 1;
};

/// The outcome of one query. `payload` is the serialized JSON payload —
/// shared with the cache, byte-identical between the cold computation and
/// every subsequent warm hit.
struct query_response {
  std::shared_ptr<const std::string> payload;
  std::string canonical;               ///< canonicalized query
  dataset::database_version version;   ///< pinned composite's version vector
  std::uint64_t epoch = 0;             ///< commit epoch (sharded: per-shard sum)
  std::vector<std::uint64_t> epochs;   ///< per-shard epochs ({epoch} when shards == 1)
  bool cache_hit = false;
  std::int64_t latency_ns = 0;
};

/// A query pinned, routed and keyed against the published composite: what
/// try_hit() works in. The caller owns it and may reuse it call after call;
/// the pins and the key keep their storage. A hit leaves the cached payload
/// and the composite version; a miss also carries the query and its
/// canonical form on to the miss path (submit_miss or run_miss), which
/// therefore neither pins again nor rebuilds the key.
struct query_lookup {
  query q;                               ///< set on a miss
  std::string canonical;                 ///< set on a miss
  std::vector<snapshot_ptr> pins;        ///< one per shard, index = shard id, held until reuse
  dataset::database_version version;     ///< the pins' composite version vector
  std::size_t first = 0;                 ///< routed shards: [first, last)
  std::size_t last = 0;
  std::string key;                       ///< the cache key over the routed shards
  std::shared_ptr<const std::string> payload;  ///< the cached payload on a hit, else null
  std::int64_t latency_ns = 0;           ///< try_hit's own time

  bool hit() const { return payload != nullptr; }
};

/// The outcome of ingesting one raw report document. An accepted document
/// reports what it appended and the composite its commits produced: each
/// touched shard at the epoch its own commit published (never a later
/// writer's), each untouched shard as currently published. A rejected one
/// carries the quarantine record (index / title / taxonomy code / message)
/// and the version it left untouched.
struct ingest_response {
  std::size_t index = 0;                  ///< ingest submission sequence number
  std::size_t disengagements_added = 0;
  std::size_t mileage_added = 0;
  std::size_t accidents_added = 0;
  std::size_t unknown_tags = 0;           ///< appended records labeled Unknown-T
  bool ocr_retried = false;               ///< the degraded-OCR rung fired
  std::optional<ingest::quarantined_document> reject;
  dataset::database_version version;      ///< post-ingest (reject: untouched)
  std::uint64_t epoch = 0;                ///< committed epoch sum (reject: unchanged)
  std::vector<std::uint64_t> epochs;      ///< per-shard epochs ({epoch} when shards == 1)
  std::int64_t latency_ns = 0;

  bool accepted() const { return !reject.has_value(); }
};

class query_engine {
 public:
  explicit query_engine(dataset::failure_database db, engine_config config = {});

  query_engine(const query_engine&) = delete;
  query_engine& operator=(const query_engine&) = delete;

  /// Executes `q` on the calling thread: try_hit, then run_miss on a miss.
  /// Safe to call from any number of threads concurrently.
  query_response execute(const query& q);

  /// Executes `q` on the worker pool.
  std::future<query_response> submit(query q);

  /// The cheap half of a query, run on the calling thread: pins the
  /// published composite, routes, builds the cache key and consults the
  /// cache, all in `lookup`. `canonical` must be q.canonical() (the
  /// request decoder hands it over). Returns lookup.hit(). Counts the
  /// query (and its hit or miss) and, on a hit, records the
  /// "serve.hit.<kind>" span. The serve loop's reader answers hits with it
  /// and hands only misses to the pool.
  bool try_hit(const query& q, std::string_view canonical, query_lookup& lookup);

  /// Completes a lookup that missed, on the calling thread: selects, merges
  /// and renders against the lookup's pin, caches the payload under the
  /// lookup's key. Records the "serve.query.<kind>" span.
  query_response run_miss(query_lookup miss);

  /// run_miss on the worker pool.
  std::future<query_response> submit_miss(query_lookup miss);

  /// The one record write path (ingest_document and direct appends):
  /// assigns global ids, commits once per touched shard, counts
  /// serve.appends, bumps each touched domain's version and drops only the
  /// touched (domain, shard) pairs' cache dependents. Returns the
  /// snapshots the batch was published in.
  composite_snapshot commit_records(std::vector<dataset::disengagement_record> dis,
                                    std::vector<dataset::mileage_record> mil,
                                    std::vector<dataset::accident_record> acc);

  /// Raw-document ingestion: runs `delivered` through the shared
  /// ingest::document_processor (strict Stage II scan, per-document
  /// normalization, Stage-III labeling), then commits the surviving
  /// records as one new epoch per touched shard (an accepted document
  /// with no surviving record commits one empty epoch on shard 0). Only
  /// the domains the document actually touched get a version bump — and
  /// only their dependent cache entries are dropped. A faulted document
  /// appends nothing, publishes no epoch, and comes back as a reject; the
  /// published snapshot is untouched. Safe to call from any number of
  /// threads; in-flight queries keep answering against their pinned
  /// snapshots throughout.
  ingest_response ingest_document(const ocr::document& delivered,
                                  const ocr::document* pristine = nullptr);

  /// The currently published snapshot of shard 0 (pinned: stays alive and
  /// immutable for as long as the pointer is held, whatever ingests do
  /// meanwhile). With one shard this is the whole store; with more, the
  /// composite state is exposed through version()/epoch()/epochs().
  snapshot_ptr snapshot() const { return store_.pin_shard(0); }

  /// Composite version vector / epoch sum — identical to the K = 1
  /// values for any serialized request stream.
  dataset::database_version version() const { return store_.pin().version; }
  std::uint64_t epoch() const { return store_.epoch(); }
  /// Per-shard epochs, index = shard id ({epoch()} when shards() == 1).
  std::vector<std::uint64_t> epochs() const { return store_.epochs(); }
  std::size_t shards() const { return store_.shards(); }

  std::size_t cache_size() const { return cache_.size(); }
  std::uint64_t cache_evictions() const { return cache_.evictions(); }
  unsigned threads() const { return pool_.size(); }

 private:
  void invalidate_dependents(char domain_letter, std::size_t shard);

  sharded_store store_;
  result_cache cache_;
  thread_pool pool_;
  obs::trace* trace_;
  /// Shared document path for ingest_document(); immutable after
  /// construction, so processing runs outside the database lock.
  ingest::document_processor processor_;
  std::atomic<std::size_t> ingest_seq_{0};

  // Registered once; counter references are pointer-stable for the
  // registry's lifetime, so the hot path pays one atomic add per event.
  obs::counter& queries_;
  obs::counter& hits_;
  obs::counter& misses_;
  obs::counter& appends_;
  obs::counter& query_ns_;
  obs::counter& ingests_;
  obs::counter& ingest_records_;
  obs::counter& ingest_ns_;
};

}  // namespace avtk::serve
