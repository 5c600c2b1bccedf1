// The serve layer's test-only oracle: copy the records a query's filters
// select into a fresh failure_database, then render. It shares nothing with
// the engine's execution path (routing, index selections, cross-shard
// merges) but render_payload and the year semantics of serve/index.h, so
// every engine payload — at any shard count, after any ingest — must equal
// reference_payload over the same records.
//
// Linked by the serve tests and bench_serve_throughput only; the engine,
// the CLI and perfbench never link it.
#pragma once

#include <string>

#include "dataset/database.h"
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

}  // namespace avtk::serve::testing
