// The serve layer's test-only oracles.
//
// Execution: copy the records a query's filters select into a fresh
// failure_database, then render. It shares nothing with the engine's
// execution path (routing, index selections, cross-shard merges) but
// render_payload and the year semantics of serve/index.h, so every engine
// payload — at any shard count, after any ingest — must equal
// reference_payload over the same records.
//
// Decoding: the DOM-based request decoder the wire used before the one-pass
// decoder (serve/query.h) replaced it — one obs::json::parse, then a walk
// over the value tree. The protocol fuzz suite holds the two to the same
// parsed_request and the same response bytes on every corpus line.
//
// Linked by the serve tests and bench_serve_throughput only; the engine,
// the CLI and perfbench never link it.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "dataset/database.h"
#include "obs/json.h"
#include "serve/query.h"

namespace avtk::serve::testing {

/// Whether disengagement `d` passes every filter of `q`.
bool matches(const dataset::disengagement_record& d, const query& q);

/// The filtered copy `q` reads. Mileage and accidents are restricted by
/// maker/year only: a tag or category filter narrows the event set, not
/// the exposure it is normalized by.
dataset::failure_database filter_database(const dataset::failure_database& db, const query& q);

/// render_payload over filter_database(db, q).
std::string reference_payload(const dataset::failure_database& db, const query& q);

/// parse_query over a request's parsed top-level object: members in order,
/// a repeated one taking its last value, the first bad one naming the
/// error, "id" accepted and ignored.
std::optional<query> parse_query(const obs::json::object& request,
                                 query_parse_error* error = nullptr);

/// parse_request through one obs::json::parse: the id is the first "id"
/// member's dump(), the first "ingest" member makes the line a filing, any
/// other object goes through the object overload of parse_query.
parsed_request parse_request(std::string_view line);

}  // namespace avtk::serve::testing
