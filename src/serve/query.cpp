#include "serve/query.h"

#include <charconv>
#include <cmath>
#include <iterator>

#include "obs/json.h"

namespace avtk::serve {

namespace json = obs::json;

std::string_view query_kind_name(query_kind k) {
  switch (k) {
    case query_kind::metrics: return "metrics";
    case query_kind::tags: return "tags";
    case query_kind::categories: return "categories";
    case query_kind::modality: return "modality";
    case query_kind::trend: return "trend";
    case query_kind::fit: return "fit";
    case query_kind::compare: return "compare";
    case query_kind::mcf: return "mcf";
    case query_kind::nhpp: return "nhpp";
  }
  return "metrics";
}

std::optional<query_kind> query_kind_from_string(std::string_view s) {
  for (const auto k : k_all_query_kinds) {
    if (s == query_kind_name(k)) return k;
  }
  return std::nullopt;
}

domain_mask query::dependencies() const {
  switch (kind) {
    // Disengagement breakdowns. Without a maker filter their rows are the
    // makers present in disengagements or mileage, and a maker with
    // mileage alone gets an all-zero row, so mileage appends change them.
    case query_kind::tags:
    case query_kind::categories:
    case query_kind::modality:
      return maker ? domain_disengagements : domain_disengagements | domain_mileage;
    // Fit rows need reaction-time samples: mileage never enters.
    case query_kind::fit:
      return domain_disengagements;
    // Exposure-normalized series read mileage too; the reliability event
    // processes are built from disengagement counts spread over the mileage
    // ledger, so accident appends must not touch their cached results.
    case query_kind::trend:
    case query_kind::mcf:
    case query_kind::nhpp:
      return domain_disengagements | domain_mileage;
    // Full reliability metrics fold in accident counts (DPA / APM / APMi).
    case query_kind::metrics:
    case query_kind::compare:
      return domain_disengagements | domain_mileage | domain_accidents;
  }
  return domain_disengagements | domain_mileage | domain_accidents;
}

namespace {

// Machine id for the canonical key ("ml_design", not "ML/Design").
std::string_view category_id(nlp::failure_category c) {
  switch (c) {
    case nlp::failure_category::ml_design: return "ml_design";
    case nlp::failure_category::system: return "system";
    case nlp::failure_category::unknown: return "unknown";
  }
  return "unknown";
}

}  // namespace

std::string query::canonical() const {
  std::string out(query_kind_name(kind));
  char sep = '?';
  const auto add = [&](std::string_view field, std::string_view value) {
    out += sep;
    sep = '&';
    out += field;
    out += '=';
    out += value;
  };
  if (maker) add("maker", dataset::manufacturer_id(*maker));
  if (year) add("year", std::to_string(*year));
  if (tag) add("tag", nlp::tag_id(*tag));
  if (category) add("category", category_id(*category));
  // Kind-specific knobs appear only in the kinds they shape, so
  // {"query":"tags","min_samples":7} and {"query":"tags"} coincide.
  if (kind == query_kind::fit) add("min_samples", std::to_string(min_samples));
  if (kind == query_kind::mcf) {
    add("replicates", std::to_string(replicates));
    add("seed", std::to_string(seed));
  }
  if (kind == query_kind::nhpp) {
    add("horizon_miles", std::to_string(static_cast<long long>(horizon_miles)));
  }
  return out;
}

std::optional<query> parse_query(std::string_view text, query_parse_error* error) {
  const auto fail = [&](std::string message) -> std::optional<query> {
    if (error != nullptr) error->message = std::move(message);
    return std::nullopt;
  };

  const auto doc = json::parse(text);
  if (!doc) return fail("request is not valid JSON");
  if (!doc->is_object()) return fail("request must be a JSON object");
  return parse_query(doc->as_object(), error);
}

std::optional<query> parse_query(const json::object& request, query_parse_error* error) {
  const auto fail = [&](std::string message) -> std::optional<query> {
    if (error != nullptr) error->message = std::move(message);
    return std::nullopt;
  };

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
      q.seed = static_cast<std::uint64_t>(value.as_number());
    } else if (key == "horizon_miles") {
      if (!value.is_number() || value.as_number() != std::floor(value.as_number()) ||
          value.as_number() < 1 || value.as_number() > 1e12) {
        return fail("'horizon_miles' must be a positive integer of miles");
      }
      q.horizon_miles = value.as_number();
    } else if (key == "id") {
      // Caller correlation id: opaque to the engine, echoed by the protocol
      // layer. Accepted here so one parsed object serves both layers.
    } else {
      return fail("unknown field '" + key + "'");
    }
  }
  if (!saw_kind) return fail("missing required field 'query'");
  return q;
}

void append_key_segment(std::string& key, domain_mask deps, std::size_t shard,
                        const dataset::database_version& version) {
  const auto append = [&key](char tag, std::uint64_t n) {
    char digits[24];
    digits[0] = tag;
    key.append(digits, std::to_chars(digits + 1, std::end(digits), n).ptr);
  };
  append('s', shard);
  key += ':';
  if ((deps & domain_disengagements) != 0) append('d', version.disengagements);
  if ((deps & domain_mileage) != 0) append('m', version.mileage);
  if ((deps & domain_accidents) != 0) append('a', version.accidents);
}

std::string cache_key(const query& q, const dataset::database_version& version) {
  std::string key = q.canonical();
  key += '@';
  append_key_segment(key, q.dependencies(), 0, version);
  return key;
}

}  // namespace avtk::serve
