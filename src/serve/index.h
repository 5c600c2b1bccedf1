// avtk/serve/index.h
//
// The per-epoch query index behind every filtered query: ascending
// posting lists (record indices) over each database domain, keyed by the
// filter axes serve queries actually carry — maker and year for all three
// domains, plus tag and category for disengagements.
//
// A filtered query turns into one selection per domain: the applicable
// posting lists are intersected (all lists are ascending, so the
// intersection is ascending too — record order, and therefore every
// payload byte, matches the tests' naive filter-then-copy reference
// exactly), and a single-axis filter borrows its posting list as a
// zero-copy span. The
// selections feed a `dataset::database_view`, so execution never
// materializes a filtered failure_database.
//
// Lifetime: the index is built lazily on the first filtered query against
// an epoch and cached on the `store_snapshot` itself (store.h), so it
// shares the snapshot's RCU-by-refcount lifetime — concurrent queries
// share one build, and a superseded epoch's index frees with its last
// pinned reader. Later ingests publish fresh epochs with no index, each
// holding the newest earlier index as a base: its first filtered query
// extends that base instead of rebuilding. Global record ids (and record
// indices) only ascend, so epoch e+1's posting list for a key is epoch
// e's plus the Δ records' indices. The lists share storage: each is a
// prefix of a buffer that later epochs append past (a full buffer doubles
// into a fresh one), so a single-axis selection stays a zero-copy borrowed
// span and an extension costs O(Δ + keys). A relabel since the base (the
// version moved by more than the record count) falls back to a full build.
// Borrowed posting spans are valid for as long as the snapshot pin is
// held, which is exactly how the engine uses them.
//
// Obs surface: `serve.index.builds` / `serve.index.build_ns` /
// `serve.index.bytes` counters (every index, extensions included),
// `serve.index.extends` (the builds that extended a base), plus one
// "serve.index.build" span per build when a trace is attached.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "dataset/view.h"
#include "nlp/ontology.h"
#include "obs/trace.h"
#include "serve/query.h"

namespace avtk::serve {

/// The `year` filter selects by event time where the record carries one,
/// falling back to the DMV release year for undated records. Shared by the
/// index build and the tests' naive filter reference — one definition, one
/// semantics.
inline int disengagement_year(const dataset::disengagement_record& d) {
  if (const auto bucket = d.month_bucket()) return bucket->year;
  return d.report_year;
}

inline int accident_year(const dataset::accident_record& a) {
  return a.event_date ? a.event_date->year : a.report_year;
}

/// The records one domain contributes to a filtered query: either the
/// whole domain (no filter touches it) or an ascending index selection.
/// When the selection is a single posting list it is borrowed zero-copy
/// from the index; an intersection owns its storage.
class domain_selection {
 public:
  /// Whole domain — no restriction.
  domain_selection() = default;

  static domain_selection borrow(std::span<const std::uint32_t> posting) {
    domain_selection s;
    s.restricted_ = true;
    s.borrowed_ = posting;
    return s;
  }
  static domain_selection own(dataset::selection sel) {
    domain_selection s;
    s.restricted_ = true;
    s.use_owned_ = true;
    s.owned_ = std::move(sel);
    return s;
  }

  bool restricted() const { return restricted_; }

  /// The selection span, or nullopt for "whole domain". Computed from the
  /// owned storage on each call, so moving a domain_selection cannot leave
  /// a stale span behind.
  std::optional<std::span<const std::uint32_t>> span() const {
    if (!restricted_) return std::nullopt;
    if (use_owned_) return std::span<const std::uint32_t>(owned_);
    return borrowed_;
  }

 private:
  bool restricted_ = false;
  bool use_owned_ = false;
  std::span<const std::uint32_t> borrowed_;
  dataset::selection owned_;
};

/// All three domain selections for one query. Keep this alive for as long
/// as the view built from it is in use (the view borrows the owned
/// selections' storage).
struct query_selection {
  domain_selection disengagements;
  domain_selection mileage;
  domain_selection accidents;

  dataset::database_view view(const dataset::failure_database& db) const {
    return dataset::database_view(db, disengagements.span(), mileage.span(),
                                  accidents.span());
  }
};

/// Immutable posting-list index over one frozen database state.
class query_index {
 public:
  /// Selections for `q`'s filters. Mileage and accidents are restricted by
  /// maker/year only — a tag or category filter narrows the event set, not
  /// the exposure it is normalized by (same contract as the naive reference).
  /// Filter values absent from the corpus yield empty selections.
  query_selection select(const query& q) const;

  /// Approximate heap footprint of the posting lists this index reads
  /// (shared buffers count in full), for the serve.index.bytes counter.
  std::size_t bytes() const { return bytes_; }

 private:
  friend std::unique_ptr<const query_index> build_query_index(
      const dataset::failure_database& db, obs::trace* trace, std::string_view span_label,
      const query_index* base);

  struct posting_buffer;
  /// One posting list: the first `size` entries of a buffer that later
  /// epochs' lists may share and append past.
  struct posting {
    std::shared_ptr<posting_buffer> buffer;
    std::uint32_t size = 0;
  };
  /// Posting lists of one axis, sorted by key.
  template <typename Key>
  using postings = std::vector<std::pair<Key, posting>>;

  template <typename Key>
  static std::span<const std::uint32_t> find(const postings<Key>& lists, const Key& key);
  template <typename Key>
  static void extend(postings<Key>& lists, const std::map<Key, dataset::selection>& delta);
  template <typename Key>
  static std::size_t postings_bytes(const postings<Key>& lists);

  postings<dataset::manufacturer> dis_by_maker_;
  postings<dataset::manufacturer> mil_by_maker_;
  postings<dataset::manufacturer> acc_by_maker_;
  postings<int> dis_by_year_;
  postings<int> mil_by_year_;
  postings<int> acc_by_year_;
  postings<nlp::fault_tag> dis_by_tag_;
  postings<nlp::failure_category> dis_by_category_;

  // What the index covers: each domain's record count and the version
  // vector of the database it was built over. A later epoch extends it
  // only if every domain's version moved by exactly its record-count
  // delta, i.e. nothing but appends happened in between.
  std::size_t disengagements_ = 0;
  std::size_t mileage_ = 0;
  std::size_t accidents_ = 0;
  dataset::database_version version_;
  std::size_t bytes_ = 0;
};

/// The index of `db`. With a `base` built over an ancestor state of the
/// same store from which only appends led to `db`, the result extends it:
/// every posting list shares `base`'s entries and appends the indices of
/// the records added since — O(Δ + keys) instead of one pass over every
/// record. Otherwise (no base, or a relabel since) it is a full build.
/// `base` is read only during the call; the result never references it.
///
/// Records serve.index.builds / build_ns / bytes for every index,
/// serve.index.extends for each extension, and a "serve.index.build" span
/// when `trace` is non-null. A non-empty `span_label` suffixes the span
/// name ("serve.index.build.<label>") — the sharded store labels each
/// shard's builds "s<i>" so a slow build is attributable to its shard.
std::unique_ptr<const query_index> build_query_index(const dataset::failure_database& db,
                                                     obs::trace* trace,
                                                     std::string_view span_label = {},
                                                     const query_index* base = nullptr);

}  // namespace avtk::serve
