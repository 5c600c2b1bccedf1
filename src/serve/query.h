// avtk/serve/query.h
//
// The typed query surface of the analytics engine: every Stage-IV analysis
// the paper runs once in batch, expressed as a small request object that can
// be decoded from a JSON request line, canonicalized to a stable cache key,
// and executed against a const failure_database. Queries declare which
// database domains (disengagements / mileage / accidents) they read, so the
// cache can key results on exactly the versions a computation depends on.
//
// Request lines are decoded in one pass over their bytes (parse_request):
// the pass validates the JSON exactly as obs::json::parse does (same
// grammar, same nesting limit), and fills the id echo, the query and its
// canonical form, or the ingest documents, without building a value tree.
// The DOM-based decoder it replaced is the test-only oracle in
// tests/serve/serve_reference.h; the protocol fuzz suite holds the two to
// the same response bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "dataset/database.h"
#include "dataset/manufacturers.h"
#include "nlp/ontology.h"
#include "ocr/document.h"

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
  /// The same, appended to `out` (no allocation once `out` has grown).
  void append_canonical(std::string& out) const;
};

/// Parse error carrying a human-readable reason.
struct query_parse_error {
  std::string message;
};

/// Parses a JSON request object, e.g.
///   {"query": "metrics", "maker": "waymo", "year": 2016}
/// Unknown fields are rejected (a typoed filter silently matching
/// everything would be a correctness bug in a cached service), "ingest"
/// included; an "id" member is accepted and ignored. A repeated member
/// takes its last value, and the first bad member in line order names the
/// error. Knobs cast to integers must fit their type: a `min_samples` or
/// `seed` of 2^64 or more is out of range. Returns the query or a parse
/// error message. A thin wrapper over parse_request's one-pass decoder in
/// query-only mode.
std::optional<query> parse_query(std::string_view text, query_parse_error* error = nullptr);

/// A parsed ingest request: the delivered document plus the optional
/// pristine (manual-transcription) fallback.
struct ingest_request {
  ocr::document delivered;
  std::optional<ocr::document> pristine;
};

/// One request line, decoded once: the correlation id echo, what the line
/// asks for (a query, an ingest, or the "parse" error message it is
/// answered with) and, for a query, its canonical form.
struct parsed_request {
  /// The bytes obs::json::value::dump() gives for the line's first "id"
  /// member when that is a string or a number (`7`, `"a"`, `100` for
  /// `1e2`); empty when the line carries no such id.
  std::string id;
  std::variant<query, ingest_request, query_parse_error> body;
  /// The query's canonical form (query::canonical()) when `body` holds a
  /// query, so the engine keys it without canonicalizing again.
  std::string canonical;
  /// The line carries a top-level "ingest" member. The serve loop treats
  /// it as a write barrier even when the member is malformed.
  bool ingest = false;
};

/// Decodes one request line in a single pass over its bytes. A line that
/// is not valid JSON (obs::json::parse's grammar and nesting limit) or not
/// an object answers the messages parse_query gives. A top-level "ingest"
/// member makes the line an ingest request: its first occurrence is the
/// document (a text string, or {"text", "title", "pristine"} with unknown
/// members rejected), and the line's other members are ignored. Any other
/// object is decoded as parse_query does. The first "id" member is the one
/// echoed. This overload reuses `out`'s buffers, so a reader that keeps one
/// parsed_request decodes a query line without allocating.
void parse_request(std::string_view line, parsed_request& out);
parsed_request parse_request(std::string_view line);

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
