// avtk/serve/query.h
//
// The typed query surface of the analytics engine: every Stage-IV analysis
// the paper runs once in batch, expressed as a small request object that can
// be parsed from JSON, canonicalized to a stable cache key, and executed
// against a const failure_database. Queries declare which database domains
// (disengagements / mileage / accidents) they read, so the cache can key
// results on exactly the versions a computation depends on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "dataset/database.h"
#include "dataset/manufacturers.h"
#include "nlp/ontology.h"
#include "obs/json.h"

namespace avtk::serve {

/// Every query the engine answers. Names are the wire spellings.
enum class query_kind {
  metrics,     ///< per-manufacturer DPM / median DPM / DPA / APM / APMi
  tags,        ///< fault-tag distribution (Fig. 6)
  categories,  ///< failure-category mix (Table IV)
  modality,    ///< who initiated the disengagement (Table V)
  trend,       ///< monthly miles / disengagements / DPM series
  fit,         ///< Weibull + exponentiated-Weibull + exponential reaction-time fits (Fig. 11)
  compare,     ///< cross-manufacturer reliability comparison (Table VII ordering)
  mcf,         ///< nonparametric mean cumulative function with bootstrap bands
  nhpp,        ///< NHPP trend fits (power-law / log-linear vs HPP) + extrapolation
};

/// Every query_kind, in enum order. New kinds must be added here — the
/// parser, the canonicalizer, and the exhaustive round-trip test all
/// iterate this list, so a kind missing from it cannot be requested.
inline constexpr query_kind k_all_query_kinds[] = {
    query_kind::metrics, query_kind::tags, query_kind::categories,
    query_kind::modality, query_kind::trend, query_kind::fit,
    query_kind::compare,  query_kind::mcf,  query_kind::nhpp,
};

std::string_view query_kind_name(query_kind k);
std::optional<query_kind> query_kind_from_string(std::string_view s);

/// Bitmask of the database domains a query reads.
enum domain : std::uint8_t {
  domain_disengagements = 1u << 0,
  domain_mileage = 1u << 1,
  domain_accidents = 1u << 2,
};
using domain_mask = std::uint8_t;

/// One analytics request. Filters are conjunctive; an unset filter matches
/// everything. The `year` filter selects by event month (falling back to
/// the DMV report year for undated records).
struct query {
  query_kind kind = query_kind::metrics;
  std::optional<dataset::manufacturer> maker;
  std::optional<int> year;
  std::optional<nlp::fault_tag> tag;
  std::optional<nlp::failure_category> category;
  /// Minimum reaction-time samples for `fit` (the paper uses 30).
  std::size_t min_samples = 30;
  /// Bootstrap replicates for `mcf` confidence bands (>= 100).
  int replicates = 200;
  /// Seed for the `mcf` bootstrap resampling stream. Part of the canonical
  /// form, so differently-seeded bands occupy distinct cache entries.
  std::uint64_t seed = 42;
  /// Extrapolation horizon for `nhpp`: expected events over the next this
  /// many fleet miles.
  double horizon_miles = 10000.0;

  /// Which domains executing this query reads. A maker-filtered
  /// tag/category breakdown reads only disengagements (unfiltered, its
  /// maker rows come from mileage too); metrics and compare read all three.
  domain_mask dependencies() const;

  /// Stable canonical form, e.g. "tags?maker=waymo&year=2016". Two queries
  /// with the same canonical form always produce identical results against
  /// the same database version.
  std::string canonical() const;
};

/// Parse error carrying a human-readable reason.
struct query_parse_error {
  std::string message;
};

/// Parses a JSON request object, e.g.
///   {"query": "metrics", "maker": "waymo", "year": 2016}
/// Unknown fields are rejected (a typoed filter silently matching
/// everything would be a correctness bug in a cached service).
/// Returns the query or a parse error message.
std::optional<query> parse_query(std::string_view text, query_parse_error* error = nullptr);

/// The same over a request line's already parsed top-level object, so a
/// caller that has parsed the line (serve/protocol.h) does not parse it
/// again. The text overload is a thin wrapper over this one.
std::optional<query> parse_query(const obs::json::object& request,
                                 query_parse_error* error = nullptr);

/// Cache keys are the canonical form, '@', then one segment per store
/// shard the query reads: "s<i>:" followed by that shard's versions of the
/// domains the query depends on ("trend@s0:d3m7",
/// "metrics@s0:d3m7a9s1:d2m5a1"). Appends to a domain or a shard a query
/// does not read leave its key, and therefore its cached result,
/// untouched. This appends one segment.
void append_key_segment(std::string& key, domain_mask deps, std::size_t shard,
                        const dataset::database_version& version);

/// The key of `q` against a one-shard store at `version`.
std::string cache_key(const query& q, const dataset::database_version& version);

}  // namespace avtk::serve
