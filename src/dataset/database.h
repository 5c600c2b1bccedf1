// avtk/dataset/database.h
//
// The consolidated AV failure database (step 4 of Fig. 1): normalized
// disengagements, mileage and accidents merged into one store. This type
// is storage and mutation only — appends, Stage III's in-place relabel,
// record ids and version counters. Every derived read (totals, per-maker
// scans, the vehicle-month join, reaction times) lives once, on
// dataset::database_view (dataset/view.h), which every Stage IV analysis
// reads through; `database_view(db)` is the whole-database view.
//
// Storage is a persistent chunked array per domain (dataset/chunked_array.h):
// records and their global ids live in fixed-size chunks behind shared
// pointers. Copying a database copies three chunk-pointer lists plus the
// version vector, so the copy shares every chunk with its source; an append
// clones at most the partly filled tail chunk of the domain it writes, and
// a relabel clones only the chunk it touches. This is what makes serve's
// snapshot-isolated store (serve/store.h) cheap: publishing a new epoch
// after an ingest of Δ records costs O(Δ + chunks), and every full chunk
// stays shared with every older and newer epoch. Readers of a shared
// database are race-free by construction (a shared chunk is never
// written); mutation is single-owner as ever — writers serialize
// externally.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "dataset/chunked_array.h"
#include "dataset/records.h"

namespace avtk::dataset {

/// Monthly aggregate for one (manufacturer, vehicle) pair.
struct vehicle_month {
  manufacturer maker = manufacturer::waymo;
  std::string vehicle_id;
  year_month month;
  double miles = 0.0;
  long long disengagements = 0;
};

/// Per-domain monotonic version counters, bumped on every ingest. Consumers
/// that cache derived results (avtk::serve) key them on the versions of the
/// domains a computation actually reads, so appending an accident does not
/// invalidate results derived purely from disengagements.
struct database_version {
  std::uint64_t disengagements = 0;
  std::uint64_t mileage = 0;
  std::uint64_t accidents = 0;

  auto operator<=>(const database_version&) const = default;

  /// "d<N>.m<N>.a<N>" — stable textual form for cache keys and logs.
  std::string to_string() const;
};

class failure_database {
 public:
  failure_database() = default;

  void add_disengagement(disengagement_record rec);
  void add_mileage(mileage_record rec);
  void add_accident(accident_record rec);

  /// Appends carrying an explicit *global record id*. Every record gets a
  /// stable id at append time (the no-id overloads default it to the
  /// record's position, so in a single database id == index); a sharded
  /// store (serve/store.h) passes ids allocated from store-wide counters
  /// instead, which is what lets per-shard selections be concatenated back
  /// into original corpus order. Ids ride in the same chunks as their
  /// records (`disengagements().id(i)`).
  void add_disengagement(disengagement_record rec, std::uint64_t id);
  void add_mileage(mileage_record rec, std::uint64_t id);
  void add_accident(accident_record rec, std::uint64_t id);

  /// Stage III writes its verdicts back in place: re-tags the
  /// disengagement at `index`, cloning only its chunk if shared. Bumps the disengagement version exactly
  /// like an add, so cached query results keyed on the version are
  /// invalidated. (The alternative — rebuilding the whole database just
  /// to change two enum fields per record — deep-copies every string and
  /// dominated the label stage's wall-clock.)
  void relabel_disengagement(std::size_t index, nlp::fault_tag tag,
                             nlp::failure_category category);

  /// Current per-domain version counters. Each add_* bumps exactly one
  /// domain by one; a default-constructed database is at {0, 0, 0}.
  const database_version& version() const { return version_; }

  /// Overwrites the version vector. A database partitioned by replaying
  /// add_* calls loses the source's relabel bumps; the sharded store
  /// (serve/store.h) uses this to conserve the seed's version components
  /// across its shards, so the composite sum — and every cache key and
  /// response version derived from it — stays byte-identical to the
  /// single-store oracle.
  void set_version(const database_version& v) { version_ = v; }

  /// Domain accessors return the chunked array itself: indexable,
  /// iterable in corpus order, with `id(i)` for the global record id. Two
  /// databases that structurally share a domain hold the same chunk
  /// pointers (`chunk_at(k)`), which is what tests and the snapshot store's
  /// sharing contract compare.
  const chunked_array<disengagement_record>& disengagements() const { return disengagements_; }
  const chunked_array<mileage_record>& mileage() const { return mileage_; }
  const chunked_array<accident_record>& accidents() const { return accidents_; }

 private:
  chunked_array<disengagement_record> disengagements_;
  chunked_array<mileage_record> mileage_;
  chunked_array<accident_record> accidents_;
  database_version version_;
};

}  // namespace avtk::dataset
