// avtk/serve/render.h
//
// The one payload renderer behind every query the engine executes: a
// Stage-IV builder (core/) or recurrent-events estimator (reliability/)
// run over a database view, serialized as the JSON payload the wire
// carries and the result cache stores. Rendering is a pure function of the
// records the view exposes, in their iteration order, so any two views
// that expose the same records in the same order render the same bytes —
// the contract every execution layout (one shard, a cross-shard merge, the
// tests' filtered-copy reference) is checked against.
#pragma once

#include <string>

#include "dataset/view.h"
#include "serve/query.h"

namespace avtk::serve {

/// Renders `q`'s payload over `db`. The caller has already applied the
/// query's filters: `db` exposes exactly the records the query reads.
std::string render_payload(const dataset::database_view& db, const query& q);

}  // namespace avtk::serve
