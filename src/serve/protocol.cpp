#include "serve/protocol.h"

#include <algorithm>
#include <deque>
#include <istream>
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
// the whole serialization again for nothing. `body_bytes` is what the
// caller will append, reserved up front so a large payload is copied once.
std::string envelope_prefix(const std::optional<json::value>& id, bool ok,
                            std::size_t body_bytes = 0) {
  std::string out;
  out.reserve(64 + body_bytes);
  out += "{\"schema\":";
  out += json::escape(k_serve_schema);
  out += ",\"ok\":";
  out += ok ? "true" : "false";
  if (id) {
    out += ",\"id\":";
    out += id->dump();
  }
  return out;
}

std::string envelope_ok(const std::optional<json::value>& id, const query_response& r) {
  std::string out = envelope_prefix(id, true, r.canonical.size() + r.payload->size() + 64);
  out += ",\"query\":";
  out += json::escape(r.canonical);
  out += ",\"version\":";
  out += json::escape(r.version.to_string());
  out += ",\"payload\":";
  out += *r.payload;
  out += '}';
  return out;
}

// Machine-readable code for an execution failure: avtk errors report their
// taxonomy code, anything else is "internal".
std::string_view execution_code(const std::exception& e) {
  if (const auto* ave = dynamic_cast<const avtk::error*>(&e)) {
    return error_code_name(ave->code());
  }
  return "internal";
}

std::string envelope_error(const std::optional<json::value>& id, std::string_view code,
                           std::string_view message) {
  std::string out = envelope_prefix(id, false);
  out += ",\"code\":";
  out += json::escape(code);
  out += ",\"error\":";
  out += json::escape(message);
  out += '}';
  return out;
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

// The "ingest" member is either a bare text string or
// {"text": ..., "title": ..., "pristine": ...}. Unknown members are
// rejected, matching parse_query's posture.
std::optional<ingest_request> parse_ingest_request(const json::value& spec, std::string* error) {
  ingest_request out;
  if (spec.is_string()) {
    out.delivered = ocr::document::from_text(spec.as_string());
    return out;
  }
  if (!spec.is_object()) {
    *error = "'ingest' must be a document text string or an object";
    return std::nullopt;
  }
  for (const auto& [key, unused] : spec.as_object()) {
    if (key != "text" && key != "title" && key != "pristine") {
      *error = "unknown ingest field '" + key + "'";
      return std::nullopt;
    }
  }
  const auto* text = spec.find("text");
  if (text == nullptr || !text->is_string()) {
    *error = "ingest request needs a string 'text' member";
    return std::nullopt;
  }
  out.delivered = ocr::document::from_text(text->as_string());
  if (const auto* title = spec.find("title")) {
    if (!title->is_string()) {
      *error = "ingest 'title' must be a string";
      return std::nullopt;
    }
    out.delivered.title = title->as_string();
  }
  if (const auto* pristine = spec.find("pristine")) {
    if (!pristine->is_string()) {
      *error = "ingest 'pristine' must be a string";
      return std::nullopt;
    }
    out.pristine = ocr::document::from_text(pristine->as_string());
    out.pristine->title = out.delivered.title;
  }
  return out;
}

std::string envelope_ingest_ok(const std::optional<json::value>& id, const ingest_response& r) {
  std::string out = envelope_prefix(id, true);
  out += ",\"ingest\":{\"index\":" + std::to_string(r.index);
  out += ",\"disengagements\":" + std::to_string(r.disengagements_added);
  out += ",\"mileage\":" + std::to_string(r.mileage_added);
  out += ",\"accidents\":" + std::to_string(r.accidents_added);
  out += ",\"unknown_tags\":" + std::to_string(r.unknown_tags);
  out += ",\"ocr_retried\":";
  out += r.ocr_retried ? "true" : "false";
  out += "},\"version\":";
  out += json::escape(r.version.to_string());
  out += '}';
  return out;
}

// The structured per-record reject: taxonomy code at the top level (so
// clients branch without string-matching), plus — unless the skip posture
// dropped it — a "rejects" array with one index/title/code/message entry
// per refused record.
std::string envelope_ingest_reject(const std::optional<json::value>& id,
                                   const ingest_response& r, bool detail) {
  const auto& q = *r.reject;
  std::string out = envelope_prefix(id, false);
  out += ",\"code\":";
  out += json::escape(error_code_name(q.code));
  out += ",\"error\":";
  out += json::escape(q.message);
  if (detail) {
    out += ",\"rejects\":[{\"index\":" + std::to_string(q.index);
    out += ",\"title\":";
    out += json::escape(q.title);
    out += ",\"code\":";
    out += json::escape(error_code_name(q.code));
    out += ",\"message\":";
    out += json::escape(q.message);
    out += "}]";
  }
  out += ",\"version\":";
  out += json::escape(r.version.to_string());
  out += '}';
  return out;
}

}  // namespace

parsed_request parse_request(std::string_view line) {
  parsed_request out;
  const auto doc = json::parse(line);
  // The two messages parse_query(std::string_view) gives for the same lines.
  if (!doc) {
    out.body = query_parse_error{"request is not valid JSON"};
    return out;
  }
  if (!doc->is_object()) {
    out.body = query_parse_error{"request must be a JSON object"};
    return out;
  }
  if (const auto* id = doc->find("id"); id != nullptr && (id->is_string() || id->is_number())) {
    out.id = *id;
  }
  if (const auto* spec = doc->find("ingest")) {
    out.ingest = true;
    std::string error;
    if (auto req = parse_ingest_request(*spec, &error)) {
      out.body = std::move(*req);
    } else {
      out.body = query_parse_error{std::move(error)};
    }
    return out;
  }
  query_parse_error error;
  if (auto q = parse_query(doc->as_object(), &error)) {
    out.body = std::move(*q);
  } else {
    out.body = std::move(error);
  }
  return out;
}

std::string handle_request_line(query_engine& engine, std::string_view line) {
  const auto req = parse_request(line);
  if (const auto* error = std::get_if<query_parse_error>(&req.body)) {
    return envelope_error(req.id, "parse", error->message);
  }
  if (const auto* doc = std::get_if<ingest_request>(&req.body)) {
    const auto r =
        engine.ingest_document(doc->delivered, doc->pristine ? &*doc->pristine : nullptr);
    return r.accepted() ? envelope_ingest_ok(req.id, r)
                        : envelope_ingest_reject(req.id, r, /*detail=*/true);
  }
  try {
    return envelope_ok(req.id, engine.execute(std::get<query>(req.body)));
  } catch (const std::exception& e) {
    return envelope_error(req.id, execution_code(e), std::string("query failed: ") + e.what());
  }
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
  const auto parse_error = [&](const std::optional<json::value>& id, std::string_view message,
                               std::string_view code = "parse") {
    ++stats.errors;
    ++stats.parse_errors;
    obs::metrics().get_counter("serve.errors.parse").add();
    return envelope_error(id, code, message);
  };

  // A window of in-flight requests; responses drain from the front so
  // output order always matches input order regardless of which worker
  // finishes first. The reader answers parse errors and cache hits itself,
  // so their entries hold a finished response line; a miss holds the
  // future of the worker computing it. Either way an entry is written only
  // when it leaves the window: when the window is full, when a filing
  // drains it, or when input ends.
  struct pending {
    std::string line;  ///< the response line, unless `miss` is set
    std::optional<json::value> id;
    std::optional<std::future<query_response>> miss;
  };
  std::deque<pending> window;

  const auto drain_front = [&] {
    pending p = std::move(window.front());
    window.pop_front();
    if (p.miss) {
      try {
        p.line = envelope_ok(p.id, p.miss->get());
      } catch (const std::exception& e) {
        ++stats.errors;
        ++stats.execution_errors;
        obs::metrics().get_counter("serve.errors.execution").add();
        p.line = envelope_error(p.id, execution_code(e), std::string("query failed: ") + e.what());
      }
    }
    out << p.line << '\n';
  };

  std::vector<char> buf;
  std::size_t len = 0;
  for (line_read r; (r = read_request_line(in, buf, len)) != line_read::end;) {
    if (r == line_read::too_long) {
      ++stats.requests;
      pending p;
      p.line = parse_error(std::nullopt,
                           "request line exceeds " + std::to_string(k_max_request_bytes) + " bytes",
                           error_code_name(error_code::limit));
      window.push_back(std::move(p));
      while (window.size() >= max_in_flight) drain_front();
      continue;
    }
    const std::string_view line(buf.data(), len);
    if (!is_request_line(line)) continue;
    ++stats.requests;
    auto req = parse_request(line);

    if (req.ingest) {
      // Response-order barrier (not a store barrier: the snapshot store
      // commits without stalling queries): everything already in flight
      // answers against its pinned pre-ingest snapshot before the
      // document lands, so the response stream reads like a serial
      // history and each query's version vector matches its position.
      while (!window.empty()) drain_front();
      const auto* doc = std::get_if<ingest_request>(&req.body);
      if (doc == nullptr) {
        out << parse_error(req.id, std::get<query_parse_error>(req.body).message) << '\n';
        continue;
      }
      ++stats.ingests;
      const auto r =
          engine.ingest_document(doc->delivered, doc->pristine ? &*doc->pristine : nullptr);
      if (r.accepted()) {
        stats.ingest_records += r.disengagements_added + r.mileage_added + r.accidents_added;
        out << envelope_ingest_ok(req.id, r) << '\n';
      } else {
        ++stats.errors;
        ++stats.ingest_rejected;
        const bool detail = options.on_ingest_error != ingest::error_policy::skip;
        out << envelope_ingest_reject(req.id, r, detail) << '\n';
        if (options.on_ingest_error == ingest::error_policy::fail_fast) {
          stats.aborted = true;
          // Deterministic-prefix contract (see the header): the reject
          // envelope is the LAST line of the response stream. The barrier
          // above already drained everything that was in flight, so the
          // window is empty here; clearing it anyway means a future
          // reordering of this branch cannot silently answer queued
          // queries after the abort decision.
          window.clear();
          break;
        }
      }
      continue;
    }

    pending p;
    if (const auto* error = std::get_if<query_parse_error>(&req.body)) {
      p.line = parse_error(req.id, error->message);
    } else if (auto lookup = engine.try_hit(std::get<query>(req.body)); lookup.hit()) {
      ++stats.cache_hits;
      p.line = envelope_ok(req.id, lookup.response);
    } else {
      p.id = std::move(req.id);
      p.miss = engine.submit_miss(std::move(lookup));
    }
    window.push_back(std::move(p));
    while (window.size() >= max_in_flight) drain_front();
  }
  while (!window.empty()) drain_front();
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
