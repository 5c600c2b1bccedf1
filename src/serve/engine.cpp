#include "serve/engine.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "obs/clock.h"
#include "serve/index.h"
#include "serve/render.h"

namespace avtk::serve {

namespace {

bool needs_filter(const query& q) {
  return q.maker || q.year || q.tag || q.category;
}

// A live append always scans strictly (the batch quarantine policies'
// validations must not be bypassable over the wire), and the processor
// shares the engine's trace.
ingest::processor_config make_ingest_config(const engine_config& config) {
  ingest::processor_config pcfg = config.ingest;
  pcfg.strict = true;
  pcfg.trace = config.trace;
  return pcfg;
}

// Span names are built only when a trace is attached: "serve.hit.categories"
// outgrows the small-string buffer, so an untraced query would otherwise pay
// a heap allocation for a name nobody records.
std::string span_name(const obs::trace* trace, std::string_view prefix, query_kind kind) {
  if (trace == nullptr) return {};
  std::string name(prefix);
  name += query_kind_name(kind);
  return name;
}

template <typename Response>
void report_state(Response& out, const composite_snapshot& comp) {
  out.version = comp.version;
  out.epoch = comp.epoch;
  out.epochs = comp.epochs;
}

}  // namespace

query_engine::query_engine(dataset::failure_database db, engine_config config)
    : store_(std::move(db), config.shards, config.trace),
      cache_(config.cache_capacity, config.cache_shards),
      pool_(config.threads != 0 ? config.threads
                                : std::max(std::thread::hardware_concurrency(), 1u)),
      trace_(config.trace),
      processor_(make_ingest_config(config)),
      queries_(obs::metrics().get_counter("serve.queries")),
      hits_(obs::metrics().get_counter("serve.cache_hits")),
      misses_(obs::metrics().get_counter("serve.cache_misses")),
      appends_(obs::metrics().get_counter("serve.appends")),
      query_ns_(obs::metrics().get_counter("serve.query_ns")),
      ingests_(obs::metrics().get_counter("serve.ingests")),
      ingest_records_(obs::metrics().get_counter("serve.ingest.records")),
      ingest_ns_(obs::metrics().get_counter("serve.ingest_ns")) {}

bool query_engine::try_hit(const query& q, std::string_view canonical, query_lookup& lookup) {
  const obs::stopwatch watch;
  queries_.add();

  // Pin the published composite into the lookup's own slots: one
  // shared_ptr copy per shard, each under its shard's publish mutex.
  // Everything after — the version the response reports, the cache key, a
  // miss's computation — is against these frozen per-shard epochs; a
  // commit landing meanwhile publishes a *new* shard snapshot and cannot
  // touch these.
  const std::size_t shards = store_.shards();
  lookup.pins.resize(shards);
  lookup.version = {};
  for (std::size_t s = 0; s < shards; ++s) {
    lookup.pins[s] = store_.pin_shard(s);
    const auto& v = lookup.pins[s]->version();
    lookup.version.disengagements += v.disengagements;
    lookup.version.mileage += v.mileage;
    lookup.version.accidents += v.accidents;
  }

  // Route: a maker-filtered query reads exactly its maker's shard, any
  // other query reads them all. The cache key carries the versions of the
  // routed shards alone, so commits elsewhere leave it live.
  lookup.first = 0;
  lookup.last = shards;
  if (q.maker) {
    lookup.first = store_.shard_for(*q.maker);
    lookup.last = lookup.first + 1;
  }
  const domain_mask deps = q.dependencies();
  lookup.key.assign(canonical);
  lookup.key += '@';
  for (std::size_t s = lookup.first; s < lookup.last; ++s) {
    append_key_segment(lookup.key, deps, s, lookup.pins[s]->version());
  }
  lookup.payload = cache_.get(lookup.key);
  if (lookup.payload) {
    hits_.add();
    const obs::scoped_span span(trace_, span_name(trace_, "serve.hit.", q.kind));
    lookup.latency_ns = watch.elapsed_ns();
    query_ns_.add(static_cast<std::uint64_t>(lookup.latency_ns));
    return true;
  }
  misses_.add();
  lookup.q = q;
  lookup.canonical.assign(canonical);
  lookup.latency_ns = watch.elapsed_ns();
  return false;
}

query_response query_engine::run_miss(query_lookup miss) {
  const obs::stopwatch watch;
  const query& q = miss.q;
  const auto comp = composite_snapshot::of(std::move(miss.pins));
  const std::size_t first = miss.first;
  const std::size_t last = miss.last;

  obs::scoped_span span(trace_, span_name(trace_, "serve.query.", q.kind));
  // 1. One selection per routed shard from its epoch's lazy index. An
  // unfiltered query takes each shard whole (a default selection) and
  // never builds an index.
  const bool filtered = needs_filter(q);
  std::vector<query_selection> sels(last - first);
  if (filtered) {
    for (std::size_t s = first; s < last; ++s) {
      sels[s - first] = comp.shards[s]->index(trace_).select(q);
    }
  }
  // 2. Merge by global id. One routed shard is the identity merge: the
  // view runs over that shard's own arrays. Across shards an unfiltered
  // query shares the store's cached plan for these epochs and a filtered
  // one gathers its selections. The view borrows storage from `sels` and
  // `plan`, which live to the end of this function, under the pin.
  std::shared_ptr<const merge_plan> plan;
  if (last - first > 1) {
    plan = filtered ? std::make_shared<const merge_plan>(gather_records(comp.shards, sels))
                    : store_.plan_for(comp);
  }
  const dataset::database_view view =
      plan ? plan->view() : sels.front().view(comp.shards[first]->db());
  // 3. Render.
  auto payload = std::make_shared<const std::string>(render_payload(view, q));
  span.close();

  cache_.put(miss.key, payload);
  obs::metrics().set_gauge("serve.cache_size", static_cast<double>(cache_.size()));
  obs::metrics().set_gauge("serve.cache_evictions", static_cast<double>(cache_.evictions()));

  query_response out;
  out.payload = std::move(payload);
  out.canonical = std::move(miss.canonical);
  report_state(out, comp);
  out.latency_ns = miss.latency_ns + watch.elapsed_ns();
  query_ns_.add(static_cast<std::uint64_t>(out.latency_ns));
  return out;
}

query_response query_engine::execute(const query& q) {
  query_lookup lookup;
  std::string canonical = q.canonical();
  if (!try_hit(q, canonical, lookup)) return run_miss(std::move(lookup));
  query_response out;
  out.payload = std::move(lookup.payload);
  out.canonical = std::move(canonical);
  report_state(out, composite_snapshot::of(std::move(lookup.pins)));
  out.cache_hit = true;
  out.latency_ns = lookup.latency_ns;
  return out;
}

std::future<query_response> query_engine::submit(query q) {
  return pool_.submit([this, q = std::move(q)] { return execute(q); });
}

std::future<query_response> query_engine::submit_miss(query_lookup miss) {
  return pool_.submit(
      [this, miss = std::move(miss)]() mutable { return run_miss(std::move(miss)); });
}

ingest_response query_engine::ingest_document(const ocr::document& delivered,
                                              const ocr::document* pristine) {
  const obs::stopwatch watch;
  ingests_.add();

  ingest_response out;
  out.index = ingest_seq_.fetch_add(1, std::memory_order_relaxed);

  // Stage II/III run before the commit — the processor is immutable and
  // no lock is involved, so concurrent queries keep serving while the
  // document is scanned, normalized and labeled.
  obs::scoped_span span(trace_, "serve.ingest");
  auto processed = processor_.process(delivered, pristine, out.index, span.id());
  out.ocr_retried = processed.ocr_retried;
  out.unknown_tags = processed.unknown_tags;
  if (out.ocr_retried) obs::metrics().get_counter("serve.ingest.retried").add();

  if (!processed.accepted()) {
    out.reject = std::move(processed.fault);
    obs::metrics()
        .get_counter("serve.ingest.rejected." + std::string(error_code_name(out.reject->code)))
        .add();
    // Untouched: a reject publishes nothing — no commit, no epoch, no
    // version bump; the snapshot readers hold stays the published one.
    report_state(out, store_.pin());
    out.latency_ns = watch.elapsed_ns();
    ingest_ns_.add(static_cast<std::uint64_t>(out.latency_ns));
    span.close();
    return out;
  }

  out.disengagements_added = processed.disengagements.size();
  out.mileage_added = processed.mileage.size();
  out.accidents_added = processed.accidents.size();
  const std::size_t records =
      out.disengagements_added + out.mileage_added + out.accidents_added;

  report_state(out, commit_records(std::move(processed.disengagements),
                                    std::move(processed.mileage),
                                    std::move(processed.accidents)));
  ingest_records_.add(records);

  out.latency_ns = watch.elapsed_ns();
  ingest_ns_.add(static_cast<std::uint64_t>(out.latency_ns));
  span.close();
  return out;
}

// Records route to the shard their maker lives in and commit under that
// shard's writer mutex alone, so writes to different shards proceed in
// parallel. Global ids are allocated in document order *before* the
// commits: the allocation order is the cross-shard merge order, and the
// per-domain order every layout appends in. One commit per touched shard
// keeps a batch atomic per shard: a query observes none or all of its
// records there. An empty batch still publishes one (empty) epoch on shard
// 0. The result holds the snapshots these commits published, never a
// later writer's, and the untouched shards' current snapshots.
composite_snapshot query_engine::commit_records(std::vector<dataset::disengagement_record> dis,
                                                std::vector<dataset::mileage_record> mil,
                                                std::vector<dataset::accident_record> acc) {
  const std::size_t records = dis.size() + mil.size() + acc.size();
  struct shard_batch {
    std::vector<std::pair<dataset::disengagement_record, std::uint64_t>> dis;
    std::vector<std::pair<dataset::mileage_record, std::uint64_t>> mil;
    std::vector<std::pair<dataset::accident_record, std::uint64_t>> acc;
  };
  std::vector<shard_batch> batches(store_.shards());
  for (auto& d : dis) {
    batches[store_.shard_for(d.maker)].dis.emplace_back(std::move(d),
                                                        store_.next_disengagement_id());
  }
  for (auto& m : mil) {
    batches[store_.shard_for(m.maker)].mil.emplace_back(std::move(m), store_.next_mileage_id());
  }
  for (auto& a : acc) {
    batches[store_.shard_for(a.maker)].acc.emplace_back(std::move(a), store_.next_accident_id());
  }

  std::vector<snapshot_ptr> reported(batches.size());
  for (std::size_t s = 0; s < batches.size(); ++s) {
    auto& b = batches[s];
    if (b.dis.empty() && b.mil.empty() && b.acc.empty() && (records > 0 || s != 0)) continue;
    reported[s] = store_.commit(s, [&](dataset::failure_database& db) {
      for (auto& [d, id] : b.dis) db.add_disengagement(std::move(d), id);
      for (auto& [m, id] : b.mil) db.add_mileage(std::move(m), id);
      for (auto& [a, id] : b.acc) db.add_accident(std::move(a), id);
    });
  }
  for (std::size_t s = 0; s < reported.size(); ++s) {
    if (!reported[s]) reported[s] = store_.pin_shard(s);
  }
  appends_.add(records);

  // Only the (domain, shard) pairs the batch touched got a version bump,
  // so only their dependents go stale.
  for (std::size_t s = 0; s < batches.size(); ++s) {
    if (!batches[s].dis.empty()) invalidate_dependents('d', s);
    if (!batches[s].mil.empty()) invalidate_dependents('m', s);
    if (!batches[s].acc.empty()) invalidate_dependents('a', s);
  }
  return composite_snapshot::of(std::move(reported));
}

// A key goes stale only if its version suffix carries the bumped domain's
// letter *inside the bumped shard's segment* ("s<i>:..."). Segments are
// delimited by 's' (the canonical prefix ends at the last '@'; after it
// only shard tags and domain components appear), so entries over other
// domains and other shards keep serving. Stale keys could never be hit
// again; dropping them eagerly keeps the cache's capacity for live ones.
void query_engine::invalidate_dependents(char domain_letter, std::size_t shard) {
  const std::string tag = "s" + std::to_string(shard) + ":";
  cache_.erase_if([&](const std::string& key) {
    const auto at = key.rfind('@');
    if (at == std::string::npos) return false;
    const auto seg = key.find(tag, at + 1);
    if (seg == std::string::npos) return false;
    const auto seg_start = seg + tag.size();
    const auto seg_end = key.find('s', seg_start);  // next shard tag, or npos
    const auto letter = key.find(domain_letter, seg_start);
    return letter != std::string::npos && (seg_end == std::string::npos || letter < seg_end);
  });
  obs::metrics().set_gauge("serve.cache_size", static_cast<double>(cache_.size()));
}

}  // namespace avtk::serve
