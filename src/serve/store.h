// avtk/serve/store.h
//
// The snapshot-isolated failure store behind serve::query_engine.
//
// The store publishes exactly one immutable `store_snapshot` at a time — a
// failure_database frozen at a per-domain version vector, stamped with a
// monotone commit epoch — through a single shared_ptr guarded by a publish
// mutex. Readers pin() the published snapshot (a shared_ptr copy under
// that mutex, which a commit holds only for its pointer swap) and compute
// against that frozen state for as long as they hold the pointer; a
// concurrent commit can never change what a pinned reader sees. The
// pointer is not a `std::atomic<std::shared_ptr>`: libstdc++ 12 releases
// that type's internal lock bit with a relaxed read-modify-write, an
// ordering ThreadSanitizer cannot see; a plain mutex gives the same short
// critical section an ordering the tools check.
//
// Writers never stall readers: commit() copies the newest database (three
// chunk-pointer lists — the domains are persistent chunked arrays,
// dataset/chunked_array.h), applies the mutation off to the side (an
// append clones at most its domain's partly filled tail chunk; every full
// chunk and every untouched domain stays structurally shared with every
// older epoch), and publishes the result as epoch N+1 with one pointer
// swap under the publish mutex. A commit of Δ records therefore costs
// O(Δ + chunks), not O(corpus). Commits serialize against each other under
// a writer-only mutex, which is what makes the epoch and every version
// component monotone.
//
// The new epoch's query index (serve/index.h) is lazy, like every epoch's,
// but it extends the newest index built before it instead of rebuilding:
// a commit hands the snapshot the superseded epoch's index (or, if that
// epoch never built one, the base it was holding), and the first filtered
// query appends only the Δ records' postings. The snapshot drops the base
// once its own index is built; indexes never reference each other or any
// snapshot, so no chain of old epochs stays alive.
//
// Reclamation is RCU-by-refcount: a superseded snapshot stays alive until
// the last pinned reader drops it, then frees on that reader's thread — or
// in commit(), after the writers' mutex is released, if no reader pins it.
// It shares every full chunk with its successor, so its free releases
// little more than its pointer lists and private tail chunks. No
// quiescent-state tracking, no deferred-free list, and nothing for a leak
// checker to find once the readers are gone.
//
// Obs surface: `serve.snapshot.commits` / `serve.snapshot.commit_ns` /
// `serve.snapshot.retired` counters (retired = snapshots superseded by a
// commit; they free when their last reader unpins), and one
// "serve.snapshot.commit" span per commit when a trace is attached. The
// `serve.snapshot.epoch` gauge belongs to sharded_store alone.
//
// `sharded_store` composes K independent snapshot_stores, partitioning
// records by manufacturer (shard_of: enum value mod K). Each shard has its
// own epoch, writer mutex and lazy per-epoch query_index, so ingests for
// different manufacturers commit in parallel and each commit copies only
// its own shard's chunk-pointer lists and tail chunks. Every record
// carries a stable *global id* allocated at append time from store-wide
// counters (stored beside the record in its chunk), which is what lets
// cross-shard queries merge per-shard records back into original corpus
// order — the merged sequence, and therefore every payload byte, is
// identical to the K = 1 layout. A composite pin is K shard pins; the composite
// version vector is the component-wise sum of the shard versions, which
// equals the K = 1 version exactly (every append bumps exactly one
// shard-domain by one). K == 1 is the same layout with one shard, which
// adopts the database as passed in, structurally shared.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dataset/database.h"
#include "dataset/view.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace avtk::serve {

class query_index;
struct query_selection;

/// One immutable published state of the store. Everything a query needs —
/// the records, the per-domain version vector it must report, the commit
/// epoch — is frozen together, so a reader holding the pointer observes
/// exactly one consistent state.
class store_snapshot {
 public:
  // Both out of line: query_index is incomplete here, and the members'
  // cleanup paths need its definition. A non-empty `index_span_label`
  // suffixes this snapshot's index-build span name
  // ("serve.index.build.<label>") — the sharded store labels shard i's
  // snapshots "s<i>". `index_base` is an earlier epoch's index for this
  // snapshot's own to extend (see index()).
  store_snapshot(dataset::failure_database db, std::uint64_t epoch,
                 std::string index_span_label = {},
                 std::shared_ptr<const query_index> index_base = nullptr);
  ~store_snapshot();

  store_snapshot(const store_snapshot&) = delete;
  store_snapshot& operator=(const store_snapshot&) = delete;

  const dataset::failure_database& db() const { return db_; }
  const dataset::database_version& version() const { return db_.version(); }
  std::uint64_t epoch() const { return epoch_; }

  /// The epoch's query index (serve/index.h), built lazily on first use
  /// and cached on the snapshot: concurrent callers share one build (the
  /// fast path after publication is a single acquire load), and the index
  /// frees with the snapshot — same RCU-by-refcount lifetime as the
  /// records it indexes. The build extends the index base this snapshot
  /// was published with, when there is one, and drops the base once built.
  /// `trace` receives the build span if this call is the one that builds.
  const query_index& index(obs::trace* trace = nullptr) const;

  /// The index a successor epoch should extend: this epoch's own if built,
  /// else the base it holds until its own is built (null if neither). An
  /// index never references another index or any snapshot, so handing one
  /// on never keeps an older epoch's records alive.
  std::shared_ptr<const query_index> index_base() const;

 private:
  dataset::failure_database db_;
  std::uint64_t epoch_;
  std::string index_span_label_;

  // Lazy index: call_once builds, the atomic publishes. Mutable because a
  // snapshot is logically immutable — the index is a cache of a pure
  // function of the frozen database.
  mutable std::once_flag index_once_;
  mutable std::atomic<const query_index*> index_ptr_{nullptr};
  mutable std::mutex index_mutex_;  ///< guards index_ and base_
  mutable std::shared_ptr<const query_index> index_;
  mutable std::shared_ptr<const query_index> base_;
};

using snapshot_ptr = std::shared_ptr<const store_snapshot>;

class snapshot_store {
 public:
  /// Publishes `db` as epoch 0. `trace` (optional) receives a
  /// "serve.snapshot.commit" span per commit. A non-empty `span_label`
  /// suffixes the commit span name ("serve.snapshot.commit.<label>") and
  /// the snapshots' index-build spans — the sharded store labels shard i
  /// "s<i>"; a standalone store keeps the historical unlabelled names.
  explicit snapshot_store(dataset::failure_database db, obs::trace* trace = nullptr,
                          std::string span_label = {});

  snapshot_store(const snapshot_store&) = delete;
  snapshot_store& operator=(const snapshot_store&) = delete;

  /// Pins the currently published snapshot: a shared_ptr copy under the
  /// publish mutex. Safe from any number of threads; waits only for
  /// another pin or a commit's pointer swap, never for a commit's build.
  snapshot_ptr pin() const {
    const std::lock_guard<std::mutex> lock(publish_mutex_);
    return published_;
  }

  /// The published epoch (0 for a freshly constructed store).
  std::uint64_t epoch() const { return pin()->epoch(); }

  /// Read-copy-update commit: `mutate` receives a private copy of the
  /// newest database (cheap — chunks are shared until written) and
  /// the result is published as the next epoch with a single pointer
  /// swap. Commits serialize; readers wait at most for the swap and keep
  /// their pinned epochs. Returns the snapshot it published, so the caller can
  /// report the exact post-commit version vector without re-pinning (a
  /// later commit may already have superseded it).
  snapshot_ptr commit(const std::function<void(dataset::failure_database&)>& mutate);

 private:
  mutable std::mutex publish_mutex_;  ///< guards published_: pins and the swap
  snapshot_ptr published_;            ///< written only under both mutexes
  std::mutex commit_mutex_;  ///< serializes writers; readers never take it
  obs::trace* trace_;
  std::string span_label_;       ///< "" for a standalone store, "s<i>" per shard
  std::string commit_span_name_; ///< precomputed "serve.snapshot.commit[.label]"

  obs::counter& commits_;
  obs::counter& commit_ns_;
  obs::counter& retired_;
};

/// The shard a manufacturer's records live in: stable enum value mod K.
/// Pure function of (maker, shards), so both layouts of a corpus agree on
/// placement and a router needs no lookup table.
inline std::size_t shard_of(dataset::manufacturer maker, std::size_t shards) {
  return static_cast<std::size_t>(maker) % shards;
}

/// One pinned state of every shard: K snapshot pins taken one shard at a
/// time (no cross-shard lock or barrier — concurrent commits on other
/// shards may land between pins, so this is a *composite*, not an atomic
/// cut; per-shard states are each internally consistent and immutable).
/// `version`/`epoch` are component-wise sums over the shards — for any
/// composite observed by a serialized request stream they equal the
/// K = 1 values exactly.
struct composite_snapshot {
  std::vector<snapshot_ptr> shards;
  dataset::database_version version;  ///< component-wise sum over shards
  std::uint64_t epoch = 0;            ///< sum of per-shard epochs
  std::vector<std::uint64_t> epochs;  ///< per-shard epochs, index = shard id

  /// Sums the versions and epochs of `shards` (index = shard id).
  static composite_snapshot of(std::vector<snapshot_ptr> shards);
};

/// A cross-shard merge: per-domain record pointers concatenated back into
/// ascending global-id (original corpus) order, plus the shard pins that
/// keep every pointed-at record alive. view() adapts it to the composed
/// database_view the Stage-IV builders consume.
struct merge_plan {
  std::vector<snapshot_ptr> pins;
  std::vector<const dataset::disengagement_record*> disengagements;
  std::vector<const dataset::mileage_record*> mileage;
  std::vector<const dataset::accident_record*> accidents;

  dataset::database_view view() const {
    return dataset::database_view(disengagements, mileage, accidents);
  }
};

/// The one record gather behind every cross-shard merge: the records
/// `sels[i]` selects from `pins[i]` (a default query_selection takes the
/// whole shard), sorted by global id. A full sort rather than a K-way merge
/// of per-shard runs, because concurrent writers can commit a shard's ids
/// out of order (ids are allocated before the shard's commit lock).
merge_plan gather_records(std::vector<snapshot_ptr> pins,
                          const std::vector<query_selection>& sels);

/// K independent snapshot_stores partitioned by manufacturer. Each shard
/// commits under its own writer mutex (parallel ingest for different
/// makers) and copies only its own slice's pointer lists and tails on write. Global
/// record ids are allocated from store-wide counters *before* any shard
/// commit runs, in document order, so cross-shard merges reproduce the
/// K = 1 record order — and therefore byte-identical payloads —
/// regardless of how shard commits interleave.
///
/// Obs: shared serve.snapshot.* counters aggregate across shards; per-shard
/// serve.shard.<i>.{commits,commit_ns,records} counters and a
/// serve.shard.<i>.epoch gauge attribute work to its shard; the
/// serve.snapshot.epoch gauge tracks the epoch *sum*, and this is its only
/// writer.
class sharded_store {
 public:
  /// Partitions `db` into `shards` stores. shards == 1 adopts `db` whole —
  /// zero copies, structural sharing with the caller preserved. For K > 1
  /// the records are partitioned in corpus order, carrying their global
  /// ids.
  sharded_store(dataset::failure_database db, std::size_t shards,
                obs::trace* trace = nullptr);

  sharded_store(const sharded_store&) = delete;
  sharded_store& operator=(const sharded_store&) = delete;

  std::size_t shards() const { return shards_.size(); }
  std::size_t shard_for(dataset::manufacturer maker) const {
    return shard_of(maker, shards_.size());
  }

  /// Pin one shard: snapshot_store::pin on that shard.
  snapshot_ptr pin_shard(std::size_t shard) const { return shards_[shard]->pin(); }

  /// Pin every shard (K shard pins) and sum versions/epochs.
  composite_snapshot pin() const;

  /// The published epoch sum / per-shard epochs.
  std::uint64_t epoch() const;
  std::vector<std::uint64_t> epochs() const;

  /// RCU commit on one shard; other shards' writers and all readers
  /// proceed concurrently. Returns the published per-shard snapshot.
  /// Maintains the per-shard obs counters and both epoch gauges. Every
  /// shard count shares this path, K == 1 included.
  snapshot_ptr commit(std::size_t shard,
                      const std::function<void(dataset::failure_database&)>& mutate);

  /// Allocate the next global record id for a domain. Call in document
  /// order *before* handing records to commit() — allocation order is
  /// merge order.
  std::uint64_t next_disengagement_id() { return next_dis_id_.fetch_add(1); }
  std::uint64_t next_mileage_id() { return next_mil_id_.fetch_add(1); }
  std::uint64_t next_accident_id() { return next_acc_id_.fetch_add(1); }

  /// The unfiltered cross-shard merge for `comp`'s epochs: every shard's
  /// records through gather_records. Cached — repeated pins of unchanged
  /// epochs share one plan; any shard advancing rebuilds. The plan holds
  /// its own pins, so it stays valid after `comp` is dropped.
  std::shared_ptr<const merge_plan> plan_for(const composite_snapshot& comp) const;

 private:
  std::vector<std::unique_ptr<snapshot_store>> shards_;

  std::atomic<std::uint64_t> next_dis_id_{0};
  std::atomic<std::uint64_t> next_mil_id_{0};
  std::atomic<std::uint64_t> next_acc_id_{0};
  std::atomic<std::uint64_t> epoch_sum_{0};

  // Per-shard counters (registry pointers are stable for the process
  // lifetime). records = records appended through commit(), measured as the
  // version-vector delta.
  std::vector<obs::counter*> shard_commits_;
  std::vector<obs::counter*> shard_commit_ns_;
  std::vector<obs::counter*> shard_records_;

  mutable std::mutex plan_mutex_;
  mutable std::vector<std::uint64_t> plan_epochs_;
  mutable std::shared_ptr<const merge_plan> plan_;
};

}  // namespace avtk::serve
