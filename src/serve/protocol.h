// avtk/serve/protocol.h
//
// The line-delimited request/response wire format over a query_engine.
// One JSON request object per input line; one compact JSON response object
// per output line, in request order:
//
//   > {"query": "metrics", "maker": "waymo"}
//   < {"schema":"avtk.serve.v1","ok":true,"query":"metrics?maker=waymo",
//      "version":"d5328.m12382.a42","payload":{...}}
//   > {"query": "nope"}
//   < {"schema":"avtk.serve.v1","ok":false,"code":"parse",
//      "error":"unknown query kind 'nope'"}
//
// Error envelopes carry a machine-readable "code" alongside the human
// message: "parse" for malformed requests, "limit" for a request line
// longer than k_max_request_bytes, the avtk error_code name ("io",
// "internal", ...) for execution failures. Clients can branch on the code
// without string-matching the message.
//
// Requests may carry an opaque "id" member (string or number) that is
// echoed back. Blank lines and lines starting with '#' are skipped, so a
// scripted batch file can be commented.
//
// Raw-document ingestion rides the same protocol: a request whose top-level
// member is "ingest" instead of "query" carries a report document (either a
// bare text string or {"text": ..., "title": ..., "pristine": ...}) and is
// routed through query_engine::ingest_document. An accepted document
// answers with what it appended and the post-ingest version:
//
//   > {"ingest": {"title": "...", "text": "..."}, "id": 7}
//   < {"schema":"avtk.serve.v1","ok":true,"id":7,
//      "ingest":{"index":0,"disengagements":12,"mileage":24,"accidents":0,
//      "unknown_tags":1,"ocr_retried":false},"version":"d5329.m12406.a42"}
//
// A document the processor refuses answers with a structured per-record
// reject envelope — the quarantine taxonomy code at the top level plus a
// "rejects" array (index / title / code / message per refused record) —
// and the database version it left untouched. What happens to the loop
// afterwards is serve_loop_options::on_ingest_error's call (quarantine:
// keep serving with full reject detail; skip: keep serving, drop the
// detail; fail_fast: emit the reject, then abort the loop).
//
// fail_fast abort contract — the response stream is a DETERMINISTIC
// PREFIX of the request stream's answers: every request before the
// rejected ingest is answered, in request order (the ingest barrier
// drains the in-flight window before the abort decision); the reject
// envelope is the final line; nothing after it is ever answered, whatever
// max_in_flight is. Two runs over the same input produce byte-identical
// output up to and including the reject.
//
// Responses are deterministic: the envelope carries no timing and no
// hit/miss flag, so a warm (cached) response is byte-identical to the cold
// one. Hit/miss and latency are observable via the obs metric registry.
//
// The reader path: run_serve_loop's reader thread decodes each line in one
// pass over its bytes (parse_request, serve/query.h: no JSON value tree,
// the canonical form written by the decoder) and runs
// query_engine::try_hit itself, so a cache hit never leaves the reader.
// The reader owns the decode target, the lookup's pins and key buffer and
// the window's response buffers and reuses them line after line, so a hit
// allocates nothing. Only a miss goes to the worker pool. Hits,
// misses and parse errors all queue in one in-flight window, whose
// release rule is the same for each: a response line is written only
// when the window is full, when a filing (a line with an "ingest" member,
// malformed or not) drains it, or when input ends. An answer that is
// ready early still waits its turn, so the output order and the fail_fast
// prefix above do not depend on which requests hit the cache.
// A line nested deeper than obs::json::k_max_depth is not valid JSON and
// answers a "parse" error.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include "serve/engine.h"

namespace avtk::serve {

/// Serve wire schema tag.
inline constexpr std::string_view k_serve_schema = "avtk.serve.v1";

/// The longest request line run_serve_loop reads, newline excluded. A
/// longer line is answered with one "limit" error (no id: the line is
/// never parsed) and skipped to its end without being buffered. The
/// largest generated filing, text plus pristine, is well under 1 MiB.
inline constexpr std::size_t k_max_request_bytes = std::size_t{16} << 20;

/// Answers one decoded request synchronously: execute, envelope. Never
/// throws — execution errors become {"ok":false,...} responses. Ingest
/// requests are handled under the quarantine posture (full reject detail,
/// caller keeps going).
std::string answer_request(query_engine& engine, const parsed_request& req);

/// answer_request over parse_request(line).
std::string handle_request_line(query_engine& engine, std::string_view line);

struct serve_loop_stats {
  std::size_t requests = 0;
  std::size_t errors = 0;            ///< total failures (parse + execution + rejects)
  std::size_t parse_errors = 0;      ///< malformed or over-long request lines
  std::size_t execution_errors = 0;  ///< well-formed queries that failed to run
  std::size_t cache_hits = 0;
  std::size_t ingests = 0;           ///< ingest requests (accepted + rejected)
  std::size_t ingest_rejected = 0;   ///< documents the processor refused
  std::size_t ingest_records = 0;    ///< records appended by accepted documents
  bool aborted = false;              ///< fail_fast stopped the loop on a reject
};

struct serve_loop_options {
  /// Pipelining depth for queries (0 means 2x the engine's thread count).
  std::size_t max_in_flight = 0;
  /// What a rejected ingest document does to the loop (see header comment).
  ingest::error_policy on_ingest_error = ingest::error_policy::quarantine;
};

/// Reads request lines from `in` until EOF, writing one response line per
/// request to `out` in request order. Cache hits are answered on the
/// reading thread; misses are dispatched to the engine's worker pool.
/// Both are pipelined up to `max_in_flight` deep, so independent queries
/// overlap while responses stay ordered. An ingest request is a write
/// barrier: the in-flight window drains first, then the document is
/// ingested synchronously — every earlier query answers against the
/// pre-ingest database, every later one against the post-ingest version.
serve_loop_stats run_serve_loop(query_engine& engine, std::istream& in, std::ostream& out,
                                const serve_loop_options& options);
serve_loop_stats run_serve_loop(query_engine& engine, std::istream& in, std::ostream& out,
                                std::size_t max_in_flight = 0);

}  // namespace avtk::serve
