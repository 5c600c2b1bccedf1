#include "serve/query.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <utility>

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

template <typename Int>
void append_int(std::string& out, Int n) {
  char digits[24];
  out.append(digits, std::to_chars(digits, std::end(digits), n).ptr);
}

}  // namespace

void query::append_canonical(std::string& out) const {
  out += query_kind_name(kind);
  char sep = '?';
  const auto add = [&](std::string_view field) {
    out += sep;
    sep = '&';
    out += field;
    out += '=';
  };
  if (maker) {
    add("maker");
    out += dataset::manufacturer_id(*maker);
  }
  if (year) {
    add("year");
    append_int(out, *year);
  }
  if (tag) {
    add("tag");
    out += nlp::tag_id(*tag);
  }
  if (category) {
    add("category");
    out += category_id(*category);
  }
  // Kind-specific knobs appear only in the kinds they shape, so
  // {"query":"tags","min_samples":7} and {"query":"tags"} coincide.
  if (kind == query_kind::fit) {
    add("min_samples");
    append_int(out, min_samples);
  }
  if (kind == query_kind::mcf) {
    add("replicates");
    append_int(out, replicates);
    add("seed");
    append_int(out, seed);
  }
  if (kind == query_kind::nhpp) {
    add("horizon_miles");
    append_int(out, static_cast<long long>(horizon_miles));
  }
}

std::string query::canonical() const {
  std::string out;
  append_canonical(out);
  return out;
}

namespace {

// 2^64, the least double no std::size_t / std::uint64_t knob can hold.
constexpr double k_two_pow_64 = 18446744073709551616.0;

// The top-level members the request grammar knows.
enum class field {
  id, ingest, query, maker, year, tag, category,
  min_samples, replicates, seed, horizon_miles, unknown,
};

field field_of(std::string_view key) {
  static constexpr std::pair<std::string_view, field> k_fields[] = {
      {"id", field::id},           {"ingest", field::ingest},
      {"query", field::query},     {"maker", field::maker},
      {"year", field::year},       {"tag", field::tag},
      {"category", field::category}, {"min_samples", field::min_samples},
      {"replicates", field::replicates}, {"seed", field::seed},
      {"horizon_miles", field::horizon_miles},
  };
  for (const auto& [name, f] : k_fields) {
    if (key == name) return f;
  }
  return field::unknown;
}

// A member value as the request grammar reads it: a string's unescaped
// bytes, a number's double, or neither (null, a bool, an array, an object).
struct scalar {
  enum class kind { other, string, number };
  kind type = kind::other;
  std::string_view raw;   ///< the value's bytes in the line, a string's quotes included
  std::string_view text;  ///< a string's unescaped bytes
  bool escaped = false;   ///< the string holds escape sequences
  double number = 0;
};

bool is_string(const scalar& v) { return v.type == scalar::kind::string; }
bool is_integral(const scalar& v) {
  return v.type == scalar::kind::number && v.number == std::floor(v.number);
}

// strtod over a copy of the token, as obs::json::parse reads a number.
double to_double(std::string_view token) {
  char small[64];
  if (token.size() < sizeof(small)) {
    token.copy(small, token.size());
    small[token.size()] = '\0';
    return std::strtod(small, nullptr);
  }
  const std::string copy(token);
  return std::strtod(copy.c_str(), nullptr);
}

// A number token that obs::json::value::dump() prints back unchanged: an
// optional '-' and at most 15 digits without a leading zero. Each such
// value is an exact double, which dump() prints in fixed notation.
bool dumps_as_itself(std::string_view token) {
  if (!token.empty() && token.front() == '-') token.remove_prefix(1);
  if (token.empty() || token.size() > 15 || (token.front() == '0' && token.size() > 1)) {
    return false;
  }
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

int hex_value(char h) {
  if (h >= '0' && h <= '9') return h - '0';
  if (h >= 'a' && h <= 'f') return h - 'a' + 10;
  if (h >= 'A' && h <= 'F') return h - 'A' + 10;
  return -1;
}

// Appends the unescaped bytes of a string's already validated content.
// A \u escape is one BMP code unit encoded as UTF-8, surrogates included,
// which is what obs::json::parse makes of it.
void append_unescaped(std::string_view raw, std::string& out) {
  std::size_t i = 0;
  while (i < raw.size()) {
    const std::size_t slash = std::min(raw.find('\\', i), raw.size());
    out.append(raw, i, slash - i);
    if (slash == raw.size()) return;
    i = slash + 2;
    switch (raw[slash + 1]) {
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) code = code << 4 | static_cast<unsigned>(hex_value(raw[i++]));
        if (code < 0x80) {
          out += static_cast<char>(code);
        } else if (code < 0x800) {
          out += static_cast<char>(0xC0 | (code >> 6));
          out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          out += static_cast<char>(0xE0 | (code >> 12));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default: out += raw[slash + 1]; break;  // '"', '\\', '/'
    }
  }
}

// One "text" / "title" / "pristine" member of an ingest object: absent, a
// string (its unescaped bytes) or some other value.
struct ingest_field {
  enum class state { absent, string, other };
  state seen = state::absent;
  std::string text;
};

// One pass over a request line. The grammar is obs::json::parse's branch
// for branch: its whitespace, its literal prefixes, its number scanner (a
// leading '+', a bare fraction or exponent, the token read by strtod), its
// escapes and its nesting limit. So a line is valid here exactly when the
// DOM parser accepts it, and a value the DOM would read as some double
// reads as the same double here. While it validates, the pass reads the
// top-level members as parse_query reads the DOM's object: in line order,
// the last value of a repeated member winning, the first bad member naming
// the error. In request mode it also keeps the first "id" as its dump()
// echo and reads the first "ingest" member as a document. Strings are
// viewed in place; only a string holding escapes is copied, unescaped,
// into a scratch buffer, and an ingest text once into the std::string that
// ocr::document::from_text takes.
class line_decoder {
 public:
  /// A null `req` decodes in query-only mode (parse_query): no id echo, and
  /// "ingest" is an unknown field like any other.
  line_decoder(std::string_view line, parsed_request* req) : line_(line), req_(req) {}

  enum class shape { invalid, not_object, object };

  shape run() {
    skip_ws();
    if (pos_ >= line_.size()) return shape::invalid;
    const bool object = line_[pos_] == '{';
    const bool ok = object ? parse_object([this](const token& key) { return top_member(key); })
                           : parse_value(nullptr);
    skip_ws();
    if (!ok || pos_ != line_.size()) return shape::invalid;
    return object ? shape::object : shape::not_object;
  }

  bool saw_ingest() const { return saw_ingest_; }

  /// The query the members spell, or the first bad member's message.
  std::optional<query> take_query(query_parse_error& error) {
    if (!failed_ && !saw_kind_) fail("missing required field 'query'");
    if (!failed_) return q_;
    error.message = std::move(error_);
    return std::nullopt;
  }

  /// The first "ingest" member's document, or why it is not one. The
  /// checks run in the DOM decoder's order: the member's type, the first
  /// unknown field, then "text", "title", "pristine".
  std::variant<query, ingest_request, query_parse_error> take_ingest() {
    using state = ingest_field::state;
    if (spec_ == ingest_spec::other) {
      return query_parse_error{"'ingest' must be a document text string or an object"};
    }
    if (spec_ == ingest_spec::object) {
      if (!ingest_error_.empty()) return query_parse_error{std::move(ingest_error_)};
      if (text_.seen != state::string) {
        return query_parse_error{"ingest request needs a string 'text' member"};
      }
      if (title_.seen == state::other) return query_parse_error{"ingest 'title' must be a string"};
      if (pristine_.seen == state::other) {
        return query_parse_error{"ingest 'pristine' must be a string"};
      }
    }
    ingest_request out;
    out.delivered = ocr::document::from_text(std::move(text_.text));
    if (title_.seen == state::string) out.delivered.title = std::move(title_.text);
    if (pristine_.seen == state::string) {
      out.pristine = ocr::document::from_text(std::move(pristine_.text));
      out.pristine->title = out.delivered.title;
    }
    return out;
  }

 private:
  // A string's content: [begin, end) of the line, escapes unresolved.
  struct token {
    std::size_t begin = 0;
    std::size_t end = 0;
    bool escaped = false;
  };

  enum class ingest_spec { text, object, other };

  void skip_ws() {
    while (pos_ < line_.size() && (line_[pos_] == ' ' || line_[pos_] == '\t' ||
                                   line_[pos_] == '\n' || line_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < line_.size() && line_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool eat_literal(std::string_view lit) {
    if (line_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  // Validates the value at pos_ (after whitespace); a non-null `out`
  // receives what the request grammar reads of it.
  bool parse_value(scalar* out) {
    skip_ws();
    if (pos_ >= line_.size()) return false;
    const char c = line_[pos_];
    if (c == '{') return parse_object([this](const token&) { return parse_value(nullptr); });
    if (c == '[') return parse_array();
    if (c == '"') return parse_string(out);
    if (eat_literal("true") || eat_literal("false") || eat_literal("null")) return true;
    return parse_number(out);
  }

  // The object at pos_: `on_member(key)` must consume the member's value.
  template <typename OnMember>
  bool parse_object(const OnMember& on_member) {
    // Containers recurse, so the nesting limit bounds the stack.
    if (depth_ == json::k_max_depth) return false;
    ++depth_;
    ++pos_;  // '{'
    const bool ok = [&] {
      skip_ws();
      if (eat('}')) return true;
      while (true) {
        skip_ws();
        token key;
        if (pos_ >= line_.size() || line_[pos_] != '"' || !scan_string(key)) return false;
        skip_ws();
        if (!eat(':') || !on_member(key)) return false;
        skip_ws();
        if (eat(',')) continue;
        return eat('}');
      }
    }();
    --depth_;
    return ok;
  }

  bool parse_array() {
    if (depth_ == json::k_max_depth) return false;
    ++depth_;
    ++pos_;  // '['
    const bool ok = [&] {
      skip_ws();
      if (eat(']')) return true;
      while (true) {
        if (!parse_value(nullptr)) return false;
        skip_ws();
        if (eat(',')) continue;
        return eat(']');
      }
    }();
    --depth_;
    return ok;
  }

  // The string at pos_ (its opening quote), escapes validated.
  bool scan_string(token& t) {
    ++pos_;  // '"'
    t.begin = pos_;
    while (pos_ < line_.size()) {
      const char c = line_[pos_++];
      if (c == '"') {
        t.end = pos_ - 1;
        return true;
      }
      if (c != '\\') continue;
      t.escaped = true;
      if (pos_ >= line_.size()) return false;
      switch (line_[pos_++]) {
        case '"': case '\\': case '/': case 'b': case 'f': case 'n': case 'r': case 't':
          break;
        case 'u':
          if (pos_ + 4 > line_.size()) return false;
          for (int k = 0; k < 4; ++k) {
            if (hex_value(line_[pos_++]) < 0) return false;
          }
          break;
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  std::string_view raw_of(const token& t) const { return line_.substr(t.begin, t.end - t.begin); }

  // The unescaped content: in place, or in `buf` when it holds escapes.
  std::string_view text_of(const token& t, std::string& buf) const {
    if (!t.escaped) return raw_of(t);
    buf.clear();
    append_unescaped(raw_of(t), buf);
    return buf;
  }

  bool parse_string(scalar* out) {
    const std::size_t open = pos_;
    token t;
    if (!scan_string(t)) return false;
    if (out != nullptr) {
      out->type = scalar::kind::string;
      out->raw = line_.substr(open, pos_ - open);
      out->escaped = t.escaped;
      out->text = text_of(t, value_buf_);
    }
    return true;
  }

  bool parse_number(scalar* out) {
    const std::size_t start = pos_;
    const auto at = [&](char a, char b) {
      return pos_ < line_.size() && (line_[pos_] == a || line_[pos_] == b);
    };
    bool any = false;
    const auto digits = [&] {
      while (pos_ < line_.size() && line_[pos_] >= '0' && line_[pos_] <= '9') {
        ++pos_;
        any = true;
      }
    };
    if (at('-', '+')) ++pos_;
    digits();
    if (at('.', '.')) {
      ++pos_;
      digits();
    }
    if (at('e', 'E')) {
      ++pos_;
      if (at('-', '+')) ++pos_;
      digits();
    }
    if (!any) return false;
    if (out != nullptr) {
      out->type = scalar::kind::number;
      out->raw = line_.substr(start, pos_ - start);
      out->number = to_double(out->raw);
    }
    return true;
  }

  void fail(std::string message) {
    failed_ = true;
    error_ = std::move(message);
  }

  bool top_member(const token& key_token) {
    const std::string_view key = text_of(key_token, key_buf_);
    const field f = field_of(key);
    if (f == field::id) {
      // The first "id" is the echoed one; the query ignores every one.
      if (req_ == nullptr || saw_id_) return parse_value(nullptr);
      saw_id_ = true;
      scalar v;
      if (!parse_value(&v)) return false;
      echo_id(v);
      return true;
    }
    if (f == field::ingest && req_ != nullptr) {
      if (saw_ingest_) return parse_value(nullptr);
      saw_ingest_ = true;
      return parse_ingest();
    }
    // After the first bad member, or on a filing, the rest of the line
    // only has to be valid JSON.
    if (failed_ || saw_ingest_) return parse_value(nullptr);
    if (f == field::unknown || f == field::ingest) {
      fail("unknown field '" + std::string(key) + "'");
      return parse_value(nullptr);
    }
    scalar v;
    if (!parse_value(&v)) return false;
    apply(f, v);
    return true;
  }

  // The echo obs::json::value::dump() gives for a string or numeric id.
  void echo_id(const scalar& v) {
    std::string& id = req_->id;
    if (v.type == scalar::kind::number) {
      if (dumps_as_itself(v.raw)) {
        id.assign(v.raw);
      } else {
        id = json::value(v.number).dump();
      }
    } else if (is_string(v)) {
      const bool plain = !v.escaped && std::none_of(v.text.begin(), v.text.end(), [](char c) {
        return static_cast<unsigned char>(c) < 0x20;
      });
      if (plain) {
        id.assign(v.raw);
      } else {
        id = json::escape(v.text);
      }
    }
  }

  // One query member, as parse_query has always read it.
  void apply(field f, const scalar& v) {
    const double n = v.number;
    switch (f) {
      case field::query: {
        if (!is_string(v)) return fail("'query' must be a string");
        const auto kind = query_kind_from_string(v.text);
        if (!kind) return fail("unknown query kind '" + std::string(v.text) + "'");
        q_.kind = *kind;
        saw_kind_ = true;
        return;
      }
      case field::maker: {
        if (!is_string(v)) return fail("'maker' must be a string");
        const auto maker = dataset::manufacturer_from_string(v.text);
        if (!maker) return fail("unknown manufacturer '" + std::string(v.text) + "'");
        q_.maker = *maker;
        return;
      }
      case field::year:
        if (!is_integral(v)) return fail("'year' must be an integer");
        if (n < 1990 || n > 2100) return fail("'year' out of range");
        q_.year = static_cast<int>(n);
        return;
      case field::tag: {
        if (!is_string(v)) return fail("'tag' must be a string");
        const auto tag = nlp::tag_from_string(v.text);
        if (!tag) return fail("unknown fault tag '" + std::string(v.text) + "'");
        q_.tag = *tag;
        return;
      }
      case field::category: {
        if (!is_string(v)) return fail("'category' must be a string");
        const auto category = nlp::category_from_string(v.text);
        if (!category) return fail("unknown category '" + std::string(v.text) + "'");
        q_.category = *category;
        return;
      }
      case field::min_samples:
        if (!is_integral(v) || n < 1) return fail("'min_samples' must be a positive integer");
        if (n >= k_two_pow_64) return fail("'min_samples' out of range");
        q_.min_samples = static_cast<std::size_t>(n);
        return;
      case field::replicates:
        if (!is_integral(v) || n < 100 || n > 10000) {
          return fail("'replicates' must be an integer in [100, 10000]");
        }
        q_.replicates = static_cast<int>(n);
        return;
      case field::seed:
        if (!is_integral(v) || n < 0) return fail("'seed' must be a non-negative integer");
        if (n >= k_two_pow_64) return fail("'seed' out of range");
        q_.seed = static_cast<std::uint64_t>(n);
        return;
      case field::horizon_miles:
        if (!is_integral(v) || n < 1 || n > 1e12) {
          return fail("'horizon_miles' must be a positive integer of miles");
        }
        q_.horizon_miles = n;
        return;
      case field::id:
      case field::ingest:
      case field::unknown:
        return;
    }
  }

  // Copies a string's content, unescaped, into `out`.
  void take_string(const token& t, std::string& out) const {
    out.clear();
    if (t.escaped) {
      out.reserve(t.end - t.begin);
      append_unescaped(raw_of(t), out);
    } else {
      out.assign(raw_of(t));
    }
  }

  // The first "ingest" member: a document text string, or an object whose
  // first "text", "title" and "pristine" members are read.
  bool parse_ingest() {
    skip_ws();
    if (pos_ < line_.size() && line_[pos_] == '"') {
      token t;
      if (!scan_string(t)) return false;
      spec_ = ingest_spec::text;
      take_string(t, text_.text);
      return true;
    }
    if (pos_ >= line_.size() || line_[pos_] != '{') {
      spec_ = ingest_spec::other;
      return parse_value(nullptr);
    }
    spec_ = ingest_spec::object;
    return parse_object([this](const token& key_token) {
      const std::string_view key = text_of(key_token, key_buf_);
      ingest_field* f = key == "text"       ? &text_
                        : key == "title"    ? &title_
                        : key == "pristine" ? &pristine_
                                            : nullptr;
      if (f == nullptr) {
        if (ingest_error_.empty()) ingest_error_ = "unknown ingest field '" + std::string(key) + "'";
        return parse_value(nullptr);
      }
      if (f->seen != ingest_field::state::absent) return parse_value(nullptr);
      skip_ws();
      if (pos_ < line_.size() && line_[pos_] == '"') {
        token t;
        if (!scan_string(t)) return false;
        f->seen = ingest_field::state::string;
        take_string(t, f->text);
        return true;
      }
      f->seen = ingest_field::state::other;
      return parse_value(nullptr);
    });
  }

  std::string_view line_;
  parsed_request* req_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string key_buf_;    ///< an escaped key, unescaped
  std::string value_buf_;  ///< an escaped string value, unescaped

  query q_;
  bool saw_kind_ = false;
  bool failed_ = false;
  std::string error_;  ///< the first bad member's message

  bool saw_id_ = false;
  bool saw_ingest_ = false;
  ingest_spec spec_ = ingest_spec::other;
  ingest_field text_;
  ingest_field title_;
  ingest_field pristine_;
  std::string ingest_error_;  ///< the first unknown ingest member's message
};

}  // namespace

std::optional<query> parse_query(std::string_view text, query_parse_error* error) {
  line_decoder decoder(text, nullptr);
  query_parse_error failure;
  switch (decoder.run()) {
    case line_decoder::shape::invalid:
      failure.message = "request is not valid JSON";
      break;
    case line_decoder::shape::not_object:
      failure.message = "request must be a JSON object";
      break;
    case line_decoder::shape::object:
      if (auto q = decoder.take_query(failure)) return q;
      break;
  }
  if (error != nullptr) *error = std::move(failure);
  return std::nullopt;
}

void parse_request(std::string_view line, parsed_request& out) {
  out.id.clear();
  out.canonical.clear();
  out.ingest = false;
  line_decoder decoder(line, &out);
  switch (decoder.run()) {
    case line_decoder::shape::invalid:
      out.id.clear();  // an unreadable line has no id
      out.body = query_parse_error{"request is not valid JSON"};
      return;
    case line_decoder::shape::not_object:
      out.body = query_parse_error{"request must be a JSON object"};
      return;
    case line_decoder::shape::object:
      break;
  }
  if (decoder.saw_ingest()) {
    out.ingest = true;
    out.body = decoder.take_ingest();
    return;
  }
  query_parse_error error;
  if (const auto q = decoder.take_query(error)) {
    q->append_canonical(out.canonical);
    out.body = *q;
  } else {
    out.body = std::move(error);
  }
}

parsed_request parse_request(std::string_view line) {
  parsed_request out;
  parse_request(line, out);
  return out;
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
