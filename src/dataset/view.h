// avtk/dataset/view.h
//
// Non-owning, optionally filtered read view over a failure_database — the
// database's only read surface. Every derived read (totals, per-maker
// scans, the per-maker vehicle-month join, reaction times) is implemented
// here once; failure_database itself holds storage and mutation only.
// Every Stage-IV builder (core/{metrics,tables,figures,context,analysis,
// exposure}, reliability/events), the Stage II filter and the serve engine
// compute from a view.
//
// A view is a pointer to the database plus, per domain, an optional
// *selection*: an ascending list of record indices. No selection means the
// whole domain; a selection restricts iteration to exactly those records,
// in corpus order. Because selections preserve corpus order, every
// aggregate computed through a view is byte-identical to the same
// aggregate computed over a materialized copy of the selected records —
// the equivalence contract serve's tests pin against a naive filtered copy.
//
// Views are cheap to construct (a pointer and three spans — no record is
// ever copied) and valid for as long as the underlying database and the
// selection storage outlive them. Iteration walks each domain's chunks
// (dataset/chunked_array.h): a position, or a selected index, splits into
// a chunk and an offset within it. serve executes queries against a pinned
// immutable snapshot, so both lifetimes are the snapshot pin's.
//
// `database_view` is implicitly constructible from `failure_database`, so
// every builder taking a view accepts a plain database at zero cost (an
// unrestricted view of all three domains); a caller holding a database
// reads an aggregate as `database_view(db).total_miles()`.
//
// A third, *composed* mode backs each domain with a list of record
// pointers instead of one array: the sharded snapshot store concatenates
// per-shard records back into original corpus order (by global record id)
// and serves cross-shard queries through the same builder surface —
// byte-identical to the one-shard layout because iteration order is
// identical.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dataset/database.h"

namespace avtk::dataset {

/// An ascending list of record indices into one domain array.
using selection = std::vector<std::uint32_t>;

/// Iterable over one domain, in one of three modes: a whole chunked array
/// (dataset/chunked_array.h), a chunked array through a selection, or a
/// list of record pointers (the sharded store's cross-shard merge —
/// serve/store.h — concatenates per-shard records back into global-id
/// order as pointer lists). The first two walk the array's chunks: the
/// whole mode steps with the array's own iterator (a pointer within each
/// chunk), a selected index splits into chunk and offset. The range
/// does not own the array, selection or pointer storage; all must outlive
/// it.
template <typename T>
class record_range {
 public:
  explicit record_range(const chunked_array<T>& base)
      : base_(&base), restricted_(false) {}
  record_range(const chunked_array<T>& base, std::span<const std::uint32_t> sel)
      : base_(&base), sel_(sel), restricted_(true) {}
  explicit record_range(std::span<const T* const> ptrs) : ptrs_(ptrs) {}

  /// Self-contained: carries the array/selection handles by value, so an
  /// iterator outlives the (often temporary) record_range it came from.
  class iterator {
   public:
    iterator(const record_range& range, std::size_t pos)
        : base_(range.base_),
          sel_(range.sel_),
          ptrs_(range.ptrs_),
          restricted_(range.restricted_),
          pos_(pos) {
      if (base_ != nullptr && !restricted_) {
        whole_ = typename chunked_array<T>::iterator(base_, pos);
      }
    }
    const T& operator*() const {
      if (base_ == nullptr) return *ptrs_[pos_];
      return restricted_ ? (*base_)[sel_[pos_]] : *whole_;
    }
    const T* operator->() const { return &**this; }
    iterator& operator++() {
      ++pos_;
      if (base_ != nullptr && !restricted_) ++whole_;
      return *this;
    }
    bool operator==(const iterator& other) const { return pos_ == other.pos_; }
    bool operator!=(const iterator& other) const { return pos_ != other.pos_; }

   private:
    const chunked_array<T>* base_;
    std::span<const std::uint32_t> sel_;
    std::span<const T* const> ptrs_;
    bool restricted_;
    std::size_t pos_;
    typename chunked_array<T>::iterator whole_;  ///< whole mode only
  };

  iterator begin() const { return iterator(*this, 0); }
  iterator end() const { return iterator(*this, size()); }
  std::size_t size() const {
    if (base_ == nullptr) return ptrs_.size();
    return restricted_ ? sel_.size() : base_->size();
  }
  bool empty() const { return size() == 0; }

 private:
  const chunked_array<T>* base_ = nullptr;  ///< null in pointer mode
  std::span<const std::uint32_t> sel_;
  std::span<const T* const> ptrs_;
  bool restricted_ = false;
};

class database_view {
 public:
  /// Unrestricted view of the whole database. Implicit on purpose: every
  /// builder taking a `const database_view&` keeps accepting a
  /// `failure_database` argument unchanged.
  database_view(const failure_database& db)  // NOLINT(google-explicit-constructor)
      : db_(&db) {}

  /// Filtered view: a selection (ascending indices) per domain, nullopt
  /// meaning the domain is unrestricted. The selection storage is
  /// borrowed, not copied — the caller keeps it alive.
  database_view(const failure_database& db,
                std::optional<std::span<const std::uint32_t>> disengagements,
                std::optional<std::span<const std::uint32_t>> mileage,
                std::optional<std::span<const std::uint32_t>> accidents)
      : db_(&db), dis_(disengagements), mil_(mileage), acc_(accidents) {}

  /// Composed view: one pointer list per domain, in whatever order the
  /// caller merged them (the sharded store concatenates per-shard records
  /// back into ascending global-id — i.e. original corpus — order). There
  /// is no backing failure_database: the pointers may span several shard
  /// databases. Pointer storage and the records it points into are
  /// borrowed; the caller keeps both alive (serve holds the shard snapshot
  /// pins inside its merge plan).
  database_view(std::span<const disengagement_record* const> disengagements,
                std::span<const mileage_record* const> mileage,
                std::span<const accident_record* const> accidents)
      : dis_ptrs_(disengagements), mil_ptrs_(mileage), acc_ptrs_(accidents), composed_(true) {}

  /// True when any domain carries a selection.
  bool restricted() const { return dis_.has_value() || mil_.has_value() || acc_.has_value(); }

  record_range<disengagement_record> disengagements() const {
    if (composed_) return record_range<disengagement_record>(dis_ptrs_);
    return dis_ ? record_range<disengagement_record>(db_->disengagements(), *dis_)
                : record_range<disengagement_record>(db_->disengagements());
  }
  record_range<mileage_record> mileage() const {
    if (composed_) return record_range<mileage_record>(mil_ptrs_);
    return mil_ ? record_range<mileage_record>(db_->mileage(), *mil_)
                : record_range<mileage_record>(db_->mileage());
  }
  record_range<accident_record> accidents() const {
    if (composed_) return record_range<accident_record>(acc_ptrs_);
    return acc_ ? record_range<accident_record>(db_->accidents(), *acc_)
                : record_range<accident_record>(db_->accidents());
  }

  /// All disengagements of one manufacturer, in corpus order.
  std::vector<const disengagement_record*> disengagements_of(manufacturer maker) const;
  /// Manufacturers present in the disengagement or mileage data, in enum
  /// order.
  std::vector<manufacturer> manufacturers_present() const;

  /// Totals over the view (optionally for one manufacturer).
  double total_miles() const;
  double total_miles(manufacturer maker) const;
  long long total_disengagements() const;
  long long total_disengagements(manufacturer maker) const;
  long long total_accidents() const;
  long long total_accidents(manufacturer maker) const;

  /// Joins one manufacturer's mileage and disengagements into
  /// per-(vehicle, month) cells, sorted by (vehicle id, month); duplicate
  /// mileage rows of a cell merge. Disengagements without a resolvable
  /// month or vehicle are attributed pro-rata within the manufacturer (the
  /// paper's monthly aggregation faces the same redaction problem): equal
  /// shares among the maker's vehicles active in the event's month, else
  /// in proportion to miles over the maker's whole history, with the
  /// remainder going to the largest fractional shares (content-hash tie
  /// break). Attribution is per manufacturer — no rule reads another
  /// maker's records — so a per-car, per-month or per-VIN builder reads
  /// exactly its maker's cells, and the cells equal that maker's slice of
  /// vehicle_months().
  std::vector<vehicle_month> vehicle_months(manufacturer maker) const;
  /// Every manufacturer's vehicle_months(maker), concatenated in enum
  /// order: the whole view's cells sorted by (maker, vehicle id, month).
  std::vector<vehicle_month> vehicle_months() const;
  /// Reaction-time samples (seconds) for one manufacturer / all.
  std::vector<double> reaction_times(std::optional<manufacturer> maker = std::nullopt) const;

 private:
  const failure_database* db_ = nullptr;  ///< null for composed views
  std::optional<std::span<const std::uint32_t>> dis_;
  std::optional<std::span<const std::uint32_t>> mil_;
  std::optional<std::span<const std::uint32_t>> acc_;
  std::span<const disengagement_record* const> dis_ptrs_;
  std::span<const mileage_record* const> mil_ptrs_;
  std::span<const accident_record* const> acc_ptrs_;
  bool composed_ = false;
};

/// Rolls one manufacturer's vehicle_months(maker) cells up into fleet
/// months: one cell per month present (empty vehicle id), month-ascending.
/// Within a month, miles sum in the cells' vehicle-id order. The monthly
/// trend (Figs. 5, 8, 9) and the fleet event process both read this.
std::vector<vehicle_month> fleet_months(std::span<const vehicle_month> cells);

}  // namespace avtk::dataset
