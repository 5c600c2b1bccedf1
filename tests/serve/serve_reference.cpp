#include "serve_reference.h"

#include <cmath>
#include <utility>

#include "serve/index.h"
#include "serve/render.h"

namespace avtk::serve::testing {

namespace json = obs::json;

bool matches(const dataset::disengagement_record& d, const query& q) {
  if (q.maker && d.maker != *q.maker) return false;
  if (q.year && disengagement_year(d) != *q.year) return false;
  if (q.tag && d.tag != *q.tag) return false;
  if (q.category && d.category != *q.category) return false;
  return true;
}

dataset::failure_database filter_database(const dataset::failure_database& db, const query& q) {
  dataset::failure_database out;
  for (const auto& d : db.disengagements()) {
    if (matches(d, q)) out.add_disengagement(d);
  }
  for (const auto& m : db.mileage()) {
    if (q.maker && m.maker != *q.maker) continue;
    if (q.year && m.month.year != *q.year) continue;
    out.add_mileage(m);
  }
  for (const auto& a : db.accidents()) {
    if (q.maker && a.maker != *q.maker) continue;
    if (q.year && accident_year(a) != *q.year) continue;
    out.add_accident(a);
  }
  return out;
}

std::string reference_payload(const dataset::failure_database& db, const query& q) {
  return render_payload(filter_database(db, q), q);
}

std::optional<query> parse_query(const json::object& request, query_parse_error* error) {
  const auto fail = [&](std::string message) -> std::optional<query> {
    if (error != nullptr) error->message = std::move(message);
    return std::nullopt;
  };
  // 2^64, the least double no std::size_t / std::uint64_t knob can hold.
  constexpr double k_two_pow_64 = 18446744073709551616.0;

  query q;
  bool saw_kind = false;
  for (const auto& [key, value] : request) {
    if (key == "query") {
      if (!value.is_string()) return fail("'query' must be a string");
      const auto kind = query_kind_from_string(value.as_string());
      if (!kind) return fail("unknown query kind '" + value.as_string() + "'");
      q.kind = *kind;
      saw_kind = true;
    } else if (key == "maker") {
      if (!value.is_string()) return fail("'maker' must be a string");
      const auto maker = dataset::manufacturer_from_string(value.as_string());
      if (!maker) return fail("unknown manufacturer '" + value.as_string() + "'");
      q.maker = *maker;
    } else if (key == "year") {
      if (!value.is_number() || value.as_number() != std::floor(value.as_number())) {
        return fail("'year' must be an integer");
      }
      const double year = value.as_number();
      if (year < 1990 || year > 2100) return fail("'year' out of range");
      q.year = static_cast<int>(year);
    } else if (key == "tag") {
      if (!value.is_string()) return fail("'tag' must be a string");
      const auto tag = nlp::tag_from_string(value.as_string());
      if (!tag) return fail("unknown fault tag '" + value.as_string() + "'");
      q.tag = *tag;
    } else if (key == "category") {
      if (!value.is_string()) return fail("'category' must be a string");
      const auto category = nlp::category_from_string(value.as_string());
      if (!category) return fail("unknown category '" + value.as_string() + "'");
      q.category = *category;
    } else if (key == "min_samples") {
      if (!value.is_number() || value.as_number() != std::floor(value.as_number()) ||
          value.as_number() < 1) {
        return fail("'min_samples' must be a positive integer");
      }
      if (value.as_number() >= k_two_pow_64) return fail("'min_samples' out of range");
      q.min_samples = static_cast<std::size_t>(value.as_number());
    } else if (key == "replicates") {
      if (!value.is_number() || value.as_number() != std::floor(value.as_number()) ||
          value.as_number() < 100 || value.as_number() > 10000) {
        return fail("'replicates' must be an integer in [100, 10000]");
      }
      q.replicates = static_cast<int>(value.as_number());
    } else if (key == "seed") {
      if (!value.is_number() || value.as_number() != std::floor(value.as_number()) ||
          value.as_number() < 0) {
        return fail("'seed' must be a non-negative integer");
      }
      if (value.as_number() >= k_two_pow_64) return fail("'seed' out of range");
      q.seed = static_cast<std::uint64_t>(value.as_number());
    } else if (key == "horizon_miles") {
      if (!value.is_number() || value.as_number() != std::floor(value.as_number()) ||
          value.as_number() < 1 || value.as_number() > 1e12) {
        return fail("'horizon_miles' must be a positive integer of miles");
      }
      q.horizon_miles = value.as_number();
    } else if (key == "id") {
      // Caller correlation id: opaque to the engine, echoed by the protocol
      // layer.
    } else {
      return fail("unknown field '" + key + "'");
    }
  }
  if (!saw_kind) return fail("missing required field 'query'");
  return q;
}

namespace {

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

}  // namespace

parsed_request parse_request(std::string_view line) {
  parsed_request out;
  const auto doc = json::parse(line);
  if (!doc) {
    out.body = query_parse_error{"request is not valid JSON"};
    return out;
  }
  if (!doc->is_object()) {
    out.body = query_parse_error{"request must be a JSON object"};
    return out;
  }
  if (const auto* id = doc->find("id"); id != nullptr && (id->is_string() || id->is_number())) {
    out.id = id->dump();
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
    out.canonical = q->canonical();
    out.body = std::move(*q);
  } else {
    out.body = std::move(error);
  }
  return out;
}

}  // namespace avtk::serve::testing
