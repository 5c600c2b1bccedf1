#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace avtk::obs::json {

namespace {

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no NaN/Inf; exporters treat them as missing
    return;
  }
  // Integers within the exactly-representable range print without a dot so
  // counters round-trip as the values users expect. Both forms are the
  // printf ones ("%.0f", "%.17g"), which std::to_chars reproduces exactly.
  // 32 bytes hold either form of any finite double.
  char buf[32];
  const bool integral = d == std::floor(d) && std::fabs(d) < 9.007199254740992e15;
  const auto result =
      integral ? std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::fixed, 0)
               : std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general, 17);
  out.append(buf, result.ptr);
}

void dump_into(const value& v, std::string& out, int indent, int depth);

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

void dump_into(const value& v, std::string& out, int indent, int depth) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    append_number(out, v.as_number());
  } else if (v.is_string()) {
    out += escape(v.as_string());
  } else if (v.is_array()) {
    const auto& a = v.as_array();
    if (a.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i) out += ',';
      append_newline_indent(out, indent, depth + 1);
      dump_into(a[i], out, indent, depth + 1);
    }
    append_newline_indent(out, indent, depth);
    out += ']';
  } else {
    const auto& o = v.as_object();
    if (o.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    for (std::size_t i = 0; i < o.size(); ++i) {
      if (i) out += ',';
      append_newline_indent(out, indent, depth + 1);
      out += escape(o[i].first);
      out += indent > 0 ? ": " : ":";
      dump_into(o[i].second, out, indent, depth + 1);
    }
    append_newline_indent(out, indent, depth);
    out += '}';
  }
}

// --- parser -----------------------------------------------------------------

struct parser {
  std::string_view text;
  std::size_t pos = 0;
  int depth = 0;  ///< open arrays/objects around `pos`
  bool failed = false;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  bool eat(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool eat_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) == lit) {
      pos += lit.size();
      return true;
    }
    return false;
  }

  value fail() {
    failed = true;
    return value();
  }

  value parse_value() {
    skip_ws();
    if (pos >= text.size()) return fail();
    const char c = text[pos];
    if (c == '{' || c == '[') {
      // Containers recurse, so an unbounded nesting would let one input
      // line exhaust the stack.
      if (depth == k_max_depth) return fail();
      ++depth;
      value v = c == '{' ? parse_object() : parse_array();
      --depth;
      return v;
    }
    if (c == '"') return parse_string();
    if (eat_literal("true")) return value(true);
    if (eat_literal("false")) return value(false);
    if (eat_literal("null")) return value(nullptr);
    return parse_number();
  }

  value parse_object() {
    ++pos;  // '{'
    object out;
    skip_ws();
    if (eat('}')) return value(std::move(out));
    while (!failed) {
      skip_ws();
      if (pos >= text.size() || text[pos] != '"') return fail();
      value key = parse_string();
      if (failed) return value();
      skip_ws();
      if (!eat(':')) return fail();
      value v = parse_value();
      if (failed) return value();
      out.emplace_back(key.as_string(), std::move(v));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return value(std::move(out));
      return fail();
    }
    return value();
  }

  value parse_array() {
    ++pos;  // '['
    array out;
    skip_ws();
    if (eat(']')) return value(std::move(out));
    while (!failed) {
      out.push_back(parse_value());
      if (failed) return value();
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return value(std::move(out));
      return fail();
    }
    return value();
  }

  value parse_string() {
    ++pos;  // '"'
    std::string out;
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return value(std::move(out));
      if (c == '\\') {
        if (pos >= text.size()) return fail();
        const char esc = text[pos++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) return fail();
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail();
            }
            // UTF-8 encode (BMP only; our exporters never emit surrogates).
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
          default: return fail();
        }
      } else {
        out += c;
      }
    }
    return fail();  // unterminated
  }

  value parse_number() {
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    bool any = false;
    auto digits = [&] {
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
        ++pos;
        any = true;
      }
    };
    digits();
    if (pos < text.size() && text[pos] == '.') {
      ++pos;
      digits();
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
      digits();
    }
    if (!any) return fail();
    const std::string token(text.substr(start, pos - start));
    return value(std::strtod(token.c_str(), nullptr));
  }
};

}  // namespace

const value* value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string value::dump(int indent) const {
  std::string out;
  dump_into(*this, out, indent, 0);
  return out;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::optional<value> parse(std::string_view text) {
  parser p{text};
  value v = p.parse_value();
  if (p.failed) return std::nullopt;
  p.skip_ws();
  if (p.pos != text.size()) return std::nullopt;
  return v;
}

}  // namespace avtk::obs::json
