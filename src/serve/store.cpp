#include "serve/store.h"

#include <algorithm>
#include <utility>

#include "obs/clock.h"
#include "serve/index.h"

namespace avtk::serve {

store_snapshot::store_snapshot(dataset::failure_database db, std::uint64_t epoch,
                               std::string index_span_label,
                               std::shared_ptr<const query_index> index_base)
    : db_(std::move(db)),
      epoch_(epoch),
      index_span_label_(std::move(index_span_label)),
      base_(std::move(index_base)) {}

store_snapshot::~store_snapshot() = default;

const query_index& store_snapshot::index(obs::trace* trace) const {
  // Fast path: one acquire load once some caller has built and published.
  if (const query_index* built = index_ptr_.load(std::memory_order_acquire)) {
    return *built;
  }
  std::call_once(index_once_, [&] {
    std::shared_ptr<const query_index> base;
    {
      const std::lock_guard<std::mutex> lock(index_mutex_);
      base = base_;
    }
    std::shared_ptr<const query_index> built =
        build_query_index(db_, trace, index_span_label_, base.get());
    {
      const std::lock_guard<std::mutex> lock(index_mutex_);
      index_ = built;
      base_.reset();
    }
    index_ptr_.store(built.get(), std::memory_order_release);
  });
  return *index_ptr_.load(std::memory_order_acquire);
}

std::shared_ptr<const query_index> store_snapshot::index_base() const {
  const std::lock_guard<std::mutex> lock(index_mutex_);
  return index_ ? index_ : base_;
}

snapshot_store::snapshot_store(dataset::failure_database db, obs::trace* trace,
                               std::string span_label)
    : published_(std::make_shared<const store_snapshot>(std::move(db), 0, span_label)),
      trace_(trace),
      span_label_(span_label),
      commit_span_name_(span_label.empty() ? "serve.snapshot.commit"
                                           : "serve.snapshot.commit." + span_label),
      commits_(obs::metrics().get_counter("serve.snapshot.commits")),
      commit_ns_(obs::metrics().get_counter("serve.snapshot.commit_ns")),
      retired_(obs::metrics().get_counter("serve.snapshot.retired")) {}

snapshot_ptr snapshot_store::commit(
    const std::function<void(dataset::failure_database&)>& mutate) {
  const obs::stopwatch watch;
  snapshot_ptr superseded;
  snapshot_ptr snap;
  {
    const std::lock_guard<std::mutex> lock(commit_mutex_);
    obs::scoped_span span(trace_, commit_span_name_);

    // Build the next epoch off to the side. The copy shares every chunk
    // of all three domains; each append inside `mutate` clones at most
    // its domain's partly filled tail chunk.
    // Only writers write published_, and they hold commit_mutex_, so this
    // read needs no publish lock.
    superseded = published_;
    dataset::failure_database next = superseded->db();
    mutate(next);

    snap = std::make_shared<const store_snapshot>(std::move(next), superseded->epoch() + 1,
                                                  span_label_, superseded->index_base());
    {
      const std::lock_guard<std::mutex> publish(publish_mutex_);
      published_ = snap;
    }

    retired_.add();
    commits_.add();
    commit_ns_.add(static_cast<std::uint64_t>(watch.elapsed_ns()));
    span.close();
  }
  // The superseded snapshot is retired from service; it frees when its
  // last pinned reader drops it — here, after the writers' lock, if
  // nobody holds it.
  superseded.reset();
  return snap;
}

namespace {

std::string shard_metric(std::size_t shard, const char* suffix) {
  return "serve.shard." + std::to_string(shard) + "." + suffix;
}

std::uint64_t version_sum(const dataset::database_version& v) {
  return v.disengagements + v.mileage + v.accidents;
}

}  // namespace

sharded_store::sharded_store(dataset::failure_database db, std::size_t shards,
                             obs::trace* trace) {
  if (shards == 0) shards = 1;

  // Global-id counters start past the seed corpus so ingested records sort
  // after every seeded one — the same order a single store appends in.
  next_dis_id_.store(db.disengagements().size());
  next_mil_id_.store(db.mileage().size());
  next_acc_id_.store(db.accidents().size());

  if (shards == 1) {
    // One shard: adopt the database whole. No partition copy and no span
    // labels; structural sharing with the caller's arrays is kept.
    shards_.push_back(std::make_unique<snapshot_store>(std::move(db), trace));
  } else {
    // Partition in corpus order. The no-id add_* overloads would re-number
    // from each shard's local size, so records carry their global ids
    // explicitly (for a seed corpus, id == original index).
    std::vector<dataset::failure_database> parts(shards);
    const auto& dis = db.disengagements();
    for (std::size_t i = 0; i < dis.size(); ++i) {
      parts[shard_of(dis[i].maker, shards)].add_disengagement(dis[i], dis.id(i));
    }
    const auto& mil = db.mileage();
    for (std::size_t i = 0; i < mil.size(); ++i) {
      parts[shard_of(mil[i].maker, shards)].add_mileage(mil[i], mil.id(i));
    }
    const auto& acc = db.accidents();
    for (std::size_t i = 0; i < acc.size(); ++i) {
      parts[shard_of(acc[i].maker, shards)].add_accident(acc[i], acc.id(i));
    }
    // Conserve the seed's version vector: the replayed adds leave each
    // shard at its record counts, but the seed may sit above its counts
    // (Stage-III relabels bump versions without adding records). Park the
    // surplus on shard 0 so the composite sum — what responses report and
    // cache keys encode — is byte-identical to the K = 1 layout.
    const auto& seed_v = db.version();
    const auto& v0 = parts[0].version();
    parts[0].set_version({v0.disengagements + (seed_v.disengagements - dis.size()),
                          v0.mileage + (seed_v.mileage - mil.size()),
                          v0.accidents + (seed_v.accidents - acc.size())});
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      shards_.push_back(std::make_unique<snapshot_store>(std::move(parts[s]), trace,
                                                         "s" + std::to_string(s)));
    }
  }

  shard_commits_.reserve(shards_.size());
  shard_commit_ns_.reserve(shards_.size());
  shard_records_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shard_commits_.push_back(&obs::metrics().get_counter(shard_metric(s, "commits")));
    shard_commit_ns_.push_back(&obs::metrics().get_counter(shard_metric(s, "commit_ns")));
    shard_records_.push_back(&obs::metrics().get_counter(shard_metric(s, "records")));
    obs::metrics().set_gauge(shard_metric(s, "epoch"), 0.0);
  }
  obs::metrics().set_gauge("serve.snapshot.epoch", 0.0);
}

composite_snapshot composite_snapshot::of(std::vector<snapshot_ptr> shards) {
  composite_snapshot comp;
  comp.epochs.reserve(shards.size());
  for (const auto& snap : shards) {
    comp.version.disengagements += snap->version().disengagements;
    comp.version.mileage += snap->version().mileage;
    comp.version.accidents += snap->version().accidents;
    comp.epoch += snap->epoch();
    comp.epochs.push_back(snap->epoch());
  }
  comp.shards = std::move(shards);
  return comp;
}

composite_snapshot sharded_store::pin() const {
  std::vector<snapshot_ptr> pins;
  pins.reserve(shards_.size());
  for (const auto& shard : shards_) pins.push_back(shard->pin());
  return composite_snapshot::of(std::move(pins));
}

std::uint64_t sharded_store::epoch() const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->epoch();
  return sum;
}

std::vector<std::uint64_t> sharded_store::epochs() const {
  std::vector<std::uint64_t> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->epoch());
  return out;
}

snapshot_ptr sharded_store::commit(
    std::size_t shard, const std::function<void(dataset::failure_database&)>& mutate) {
  const obs::stopwatch watch;
  std::uint64_t records_before = 0;
  std::uint64_t records_after = 0;
  snapshot_ptr snap = shards_[shard]->commit([&](dataset::failure_database& db) {
    records_before = version_sum(db.version());
    mutate(db);
    records_after = version_sum(db.version());
  });

  shard_commits_[shard]->add();
  shard_commit_ns_[shard]->add(static_cast<std::uint64_t>(watch.elapsed_ns()));
  if (records_after > records_before) {
    shard_records_[shard]->add(records_after - records_before);
  }
  obs::metrics().set_gauge(shard_metric(shard, "epoch"), static_cast<double>(snap->epoch()));
  const std::uint64_t sum = epoch_sum_.fetch_add(1) + 1;
  obs::metrics().set_gauge("serve.snapshot.epoch", static_cast<double>(sum));
  return snap;
}

namespace {

// One domain of gather_records: (global id, record) pairs from every
// pinned shard's selection, sorted by id.
template <typename Record>
void gather_domain(const std::vector<snapshot_ptr>& pins, const std::vector<query_selection>& sels,
                   const dataset::chunked_array<Record>& (dataset::failure_database::*records_of)()
                       const,
                   domain_selection query_selection::*sel_of, std::vector<const Record*>& out) {
  std::vector<std::pair<std::uint64_t, const Record*>> pairs;
  for (std::size_t s = 0; s < pins.size(); ++s) {
    const auto& records = (pins[s]->db().*records_of)();
    if (const auto span = (sels[s].*sel_of).span()) {
      for (const std::uint32_t i : *span) pairs.emplace_back(records.id(i), &records[i]);
    } else {
      for (std::size_t i = 0; i < records.size(); ++i) {
        pairs.emplace_back(records.id(i), &records[i]);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.reserve(pairs.size());
  for (const auto& [id, ptr] : pairs) out.push_back(ptr);
}

}  // namespace

merge_plan gather_records(std::vector<snapshot_ptr> pins,
                          const std::vector<query_selection>& sels) {
  using fdb = dataset::failure_database;
  merge_plan plan;
  plan.pins = std::move(pins);
  gather_domain(plan.pins, sels, &fdb::disengagements, &query_selection::disengagements,
                plan.disengagements);
  gather_domain(plan.pins, sels, &fdb::mileage, &query_selection::mileage, plan.mileage);
  gather_domain(plan.pins, sels, &fdb::accidents, &query_selection::accidents, plan.accidents);
  return plan;
}

std::shared_ptr<const merge_plan> sharded_store::plan_for(const composite_snapshot& comp) const {
  const std::lock_guard<std::mutex> lock(plan_mutex_);
  if (plan_ && plan_epochs_ == comp.epochs) return plan_;
  plan_ = std::make_shared<const merge_plan>(
      gather_records(comp.shards, std::vector<query_selection>(comp.shards.size())));
  plan_epochs_ = comp.epochs;
  return plan_;
}

}  // namespace avtk::serve
