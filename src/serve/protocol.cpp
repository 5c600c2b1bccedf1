#include "serve/protocol.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <istream>
#include <iterator>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/errors.h"

namespace avtk::serve {

namespace json = obs::json;

namespace {

// Envelopes are assembled by hand so the cached payload text can be spliced
// in verbatim — re-parsing it into a value tree would cost the warm path
// the whole serialization again for nothing. Each writer clears `out` and
// reserves once for the whole envelope, so a buffer reused line after line
// (the serve loop's window slots) takes a hit's envelope without
// allocating. `id` is the request's id echo (parsed_request::id), spliced
// in as it is.
void begin_envelope(std::string& out, std::string_view id, bool ok, std::size_t body_bytes) {
  out.clear();
  out.reserve(64 + id.size() + body_bytes);
  out += R"({"schema":")";
  out += k_serve_schema;
  out += ok ? R"(","ok":true)" : R"(","ok":false)";
  if (!id.empty()) {
    out += ",\"id\":";
    out += id;
  }
}

void append_count(std::string& out, std::uint64_t n) {
  char digits[24];
  out.append(digits, std::to_chars(digits, std::end(digits), n).ptr);
}

// dataset::database_version::to_string(), without the temporaries.
void append_version(std::string& out, const dataset::database_version& v) {
  out += 'd';
  append_count(out, v.disengagements);
  out += ".m";
  append_count(out, v.mileage);
  out += ".a";
  append_count(out, v.accidents);
}

// The canonical form is spelled from wire names, machine ids and decimal
// numbers, none of which JSON escapes, so it is spliced in as it is.
void write_ok(std::string& out, std::string_view id, std::string_view canonical,
              const dataset::database_version& version, const std::string& payload) {
  begin_envelope(out, id, true, canonical.size() + payload.size() + 64);
  out += R"(,"query":")";
  out += canonical;
  out += R"(","version":")";
  append_version(out, version);
  out += R"(","payload":)";
  out += payload;
  out += '}';
}

// Machine-readable code for an execution failure: avtk errors report their
// taxonomy code, anything else is "internal".
std::string_view execution_code(const std::exception& e) {
  if (const auto* ave = dynamic_cast<const avtk::error*>(&e)) {
    return error_code_name(ave->code());
  }
  return "internal";
}

void write_error(std::string& out, std::string_view id, std::string_view code,
                 std::string_view message) {
  begin_envelope(out, id, false, code.size() + message.size() + 32);
  out += ",\"code\":";
  out += json::escape(code);
  out += ",\"error\":";
  out += json::escape(message);
  out += '}';
}

enum class line_read { line, too_long, end };

// Reads the next request line into `buf` (its first `len` bytes, newline
// dropped), growing `buf` up to k_max_request_bytes + 1. A longer line is
// consumed through its newline without being stored and reported as
// too_long. `end` means the input is exhausted; a last line without a
// newline is still a line.
line_read read_request_line(std::istream& in, std::vector<char>& buf, std::size_t& len) {
  len = 0;
  while (true) {
    if (buf.size() - len < 2) {  // one character plus getline's terminator
      if (len >= k_max_request_bytes) {
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
        return line_read::too_long;
      }
      buf.resize(std::min(std::max<std::size_t>(buf.size() * 2, 4096), k_max_request_bytes + 1));
    }
    in.getline(buf.data() + len, static_cast<std::streamsize>(buf.size() - len));
    const auto n = static_cast<std::size_t>(in.gcount());
    if (in.eof()) {
      len += n;
      return len > 0 ? line_read::line : line_read::end;
    }
    if (!in.fail()) {  // the newline was consumed and counted
      len += n - 1;
      return line_read::line;
    }
    len += n;  // the buffer filled before the newline
    in.clear();
  }
}

bool is_request_line(std::string_view line) {
  const auto first = line.find_first_not_of(" \t\r");
  return first != std::string_view::npos && line[first] != '#';
}

void write_ingest_ok(std::string& out, std::string_view id, const ingest_response& r) {
  begin_envelope(out, id, true, 160);
  out += ",\"ingest\":{\"index\":";
  append_count(out, r.index);
  out += ",\"disengagements\":";
  append_count(out, r.disengagements_added);
  out += ",\"mileage\":";
  append_count(out, r.mileage_added);
  out += ",\"accidents\":";
  append_count(out, r.accidents_added);
  out += ",\"unknown_tags\":";
  append_count(out, r.unknown_tags);
  out += ",\"ocr_retried\":";
  out += r.ocr_retried ? "true" : "false";
  out += "},\"version\":\"";
  append_version(out, r.version);
  out += "\"}";
}

// The structured per-record reject: taxonomy code at the top level (so
// clients branch without string-matching), plus — unless the skip posture
// dropped it — a "rejects" array with one index/title/code/message entry
// per refused record.
void write_ingest_reject(std::string& out, std::string_view id, const ingest_response& r,
                         bool detail) {
  const auto& q = *r.reject;
  begin_envelope(out, id, false, 2 * q.message.size() + q.title.size() + 160);
  out += ",\"code\":";
  out += json::escape(error_code_name(q.code));
  out += ",\"error\":";
  out += json::escape(q.message);
  if (detail) {
    out += ",\"rejects\":[{\"index\":";
    append_count(out, q.index);
    out += ",\"title\":";
    out += json::escape(q.title);
    out += ",\"code\":";
    out += json::escape(error_code_name(q.code));
    out += ",\"message\":";
    out += json::escape(q.message);
    out += "}]";
  }
  out += ",\"version\":\"";
  append_version(out, r.version);
  out += "\"}";
}

}  // namespace

std::string answer_request(query_engine& engine, const parsed_request& req) {
  std::string out;
  if (const auto* error = std::get_if<query_parse_error>(&req.body)) {
    write_error(out, req.id, "parse", error->message);
    return out;
  }
  if (const auto* doc = std::get_if<ingest_request>(&req.body)) {
    const auto r =
        engine.ingest_document(doc->delivered, doc->pristine ? &*doc->pristine : nullptr);
    if (r.accepted()) {
      write_ingest_ok(out, req.id, r);
    } else {
      write_ingest_reject(out, req.id, r, /*detail=*/true);
    }
    return out;
  }
  try {
    query_lookup lookup;
    if (engine.try_hit(std::get<query>(req.body), req.canonical, lookup)) {
      write_ok(out, req.id, req.canonical, lookup.version, *lookup.payload);
    } else {
      const auto r = engine.run_miss(std::move(lookup));
      write_ok(out, req.id, r.canonical, r.version, *r.payload);
    }
  } catch (const std::exception& e) {
    write_error(out, req.id, execution_code(e), std::string("query failed: ") + e.what());
  }
  return out;
}

std::string handle_request_line(query_engine& engine, std::string_view line) {
  return answer_request(engine, parse_request(line));
}

serve_loop_stats run_serve_loop(query_engine& engine, std::istream& in, std::ostream& out,
                                std::size_t max_in_flight) {
  serve_loop_options options;
  options.max_in_flight = max_in_flight;
  return run_serve_loop(engine, in, out, options);
}

serve_loop_stats run_serve_loop(query_engine& engine, std::istream& in, std::ostream& out,
                                const serve_loop_options& options) {
  std::size_t max_in_flight = options.max_in_flight;
  if (max_in_flight == 0) max_in_flight = static_cast<std::size_t>(engine.threads()) * 2;
  if (max_in_flight < 1) max_in_flight = 1;

  serve_loop_stats stats;

  // A line answered without running anything: malformed ("parse") or
  // over-long ("limit").
  const auto parse_error = [&](std::string& line, std::string_view id, std::string_view message,
                               std::string_view code = "parse") {
    ++stats.errors;
    ++stats.parse_errors;
    obs::metrics().get_counter("serve.errors.parse").add();
    write_error(line, id, code, message);
  };

  // A window of in-flight requests; responses drain from the front so
  // output order always matches input order regardless of which worker
  // finishes first. The reader answers parse errors and cache hits itself,
  // so their entries hold a finished response line; a miss holds the
  // future of the worker computing it. Either way an entry is written only
  // when it leaves the window: when the window is full, when a filing
  // drains it, or when input ends. The window is a ring of slots, grown on
  // demand up to max_in_flight, whose buffers outlive their entries: a
  // steady stream of hits writes its envelopes into storage that is
  // already there.
  struct pending {
    std::string line;  ///< the response line, unless `miss` is set
    std::string id;    ///< a miss's id echo
    std::optional<std::future<query_response>> miss;
  };
  std::vector<pending> slots;
  std::size_t head = 0;      // the oldest entry's slot
  std::size_t in_flight = 0;

  const auto push = [&]() -> pending& {
    if (in_flight == slots.size()) {
      // Full ring below the window size: unroll it oldest-first and add a slot.
      std::rotate(slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(head), slots.end());
      head = 0;
      slots.emplace_back();
    }
    return slots[(head + in_flight++) % slots.size()];
  };

  const auto drain_front = [&] {
    pending& p = slots[head];
    head = (head + 1) % slots.size();
    --in_flight;
    if (p.miss) {
      try {
        const auto r = p.miss->get();
        write_ok(p.line, p.id, r.canonical, r.version, *r.payload);
      } catch (const std::exception& e) {
        ++stats.errors;
        ++stats.execution_errors;
        obs::metrics().get_counter("serve.errors.execution").add();
        write_error(p.line, p.id, execution_code(e), std::string("query failed: ") + e.what());
      }
      p.miss.reset();
    }
    out << p.line << '\n';
  };

  // The reader's reused state: the decode target, the lookup try_hit pins
  // and keys in, and the buffer for the responses a filing writes outside
  // the window.
  parsed_request req;
  query_lookup lookup;
  std::string direct;

  std::vector<char> buf;
  std::size_t len = 0;
  for (line_read r; (r = read_request_line(in, buf, len)) != line_read::end;) {
    if (r == line_read::too_long) {
      ++stats.requests;
      parse_error(push().line, {},
                  "request line exceeds " + std::to_string(k_max_request_bytes) + " bytes",
                  error_code_name(error_code::limit));
      while (in_flight >= max_in_flight) drain_front();
      continue;
    }
    const std::string_view line(buf.data(), len);
    if (!is_request_line(line)) continue;
    ++stats.requests;
    parse_request(line, req);

    if (req.ingest) {
      // Response-order barrier (not a store barrier: the snapshot store
      // commits without stalling queries): everything already in flight
      // answers against its pinned pre-ingest snapshot before the
      // document lands, so the response stream reads like a serial
      // history and each query's version vector matches its position.
      while (in_flight > 0) drain_front();
      const auto* doc = std::get_if<ingest_request>(&req.body);
      if (doc == nullptr) {
        parse_error(direct, req.id, std::get<query_parse_error>(req.body).message);
        out << direct << '\n';
        continue;
      }
      ++stats.ingests;
      const auto r =
          engine.ingest_document(doc->delivered, doc->pristine ? &*doc->pristine : nullptr);
      if (r.accepted()) {
        stats.ingest_records += r.disengagements_added + r.mileage_added + r.accidents_added;
        write_ingest_ok(direct, req.id, r);
        out << direct << '\n';
      } else {
        ++stats.errors;
        ++stats.ingest_rejected;
        const bool detail = options.on_ingest_error != ingest::error_policy::skip;
        write_ingest_reject(direct, req.id, r, detail);
        out << direct << '\n';
        if (options.on_ingest_error == ingest::error_policy::fail_fast) {
          stats.aborted = true;
          // Deterministic-prefix contract (see the header): the reject
          // envelope is the LAST line of the response stream. The barrier
          // above already drained everything that was in flight, so the
          // window is empty here; emptying it anyway means a future
          // reordering of this branch cannot silently answer queued
          // queries after the abort decision.
          in_flight = 0;
          break;
        }
      }
      continue;
    }

    pending& p = push();
    if (const auto* error = std::get_if<query_parse_error>(&req.body)) {
      parse_error(p.line, req.id, error->message);
    } else if (engine.try_hit(std::get<query>(req.body), req.canonical, lookup)) {
      ++stats.cache_hits;
      write_ok(p.line, req.id, req.canonical, lookup.version, *lookup.payload);
    } else {
      p.id = req.id;
      p.miss = engine.submit_miss(std::move(lookup));
    }
    while (in_flight >= max_in_flight) drain_front();
  }
  while (in_flight > 0) drain_front();
  out.flush();
  // Sample the occupancy gauges only after the last response is written:
  // per-query samples race each other under pipelining, so the snapshot a
  // caller exports after the loop must be re-sampled from the completed
  // engine state (check_serve.py asserts on the final value).
  obs::metrics().set_gauge("serve.cache_size", static_cast<double>(engine.cache_size()));
  obs::metrics().set_gauge("serve.cache_evictions",
                           static_cast<double>(engine.cache_evictions()));
  return stats;
}

}  // namespace avtk::serve
