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
// share one build, later ingests publish fresh epochs with no index (each
// builds its own on demand), and a superseded epoch's index frees with its
// last pinned reader. Borrowed posting spans are valid for as long as the
// snapshot pin is held, which is exactly how the engine uses them.
//
// Obs surface: `serve.index.builds` / `serve.index.build_ns` /
// `serve.index.bytes` counters, plus one "serve.index.build" span per
// build when a trace is attached.
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

  /// Approximate heap footprint of the posting lists, for the
  /// serve.index.bytes counter.
  std::size_t bytes() const { return bytes_; }

 private:
  friend std::unique_ptr<const query_index> build_query_index(
      const dataset::failure_database& db, obs::trace* trace, std::string_view span_label);

  std::map<dataset::manufacturer, dataset::selection> dis_by_maker_;
  std::map<dataset::manufacturer, dataset::selection> mil_by_maker_;
  std::map<dataset::manufacturer, dataset::selection> acc_by_maker_;
  std::map<int, dataset::selection> dis_by_year_;
  std::map<int, dataset::selection> mil_by_year_;
  std::map<int, dataset::selection> acc_by_year_;
  std::map<nlp::fault_tag, dataset::selection> dis_by_tag_;
  std::map<nlp::failure_category, dataset::selection> dis_by_category_;
  std::size_t bytes_ = 0;
};

/// One pass per domain; records serve.index.* metrics and a
/// "serve.index.build" span when `trace` is non-null. A non-empty
/// `span_label` suffixes the span name ("serve.index.build.<label>") —
/// the sharded store labels each shard's builds "s<i>" so a slow build is
/// attributable to its shard.
std::unique_ptr<const query_index> build_query_index(const dataset::failure_database& db,
                                                     obs::trace* trace,
                                                     std::string_view span_label = {});

}  // namespace avtk::serve
