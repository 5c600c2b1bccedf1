// avtk/obs/json.h
//
// A minimal JSON document model for the observability exporters: build a
// value tree, `dump()` it, `parse()` it back. Deliberately tiny — objects
// keep insertion order, numbers are doubles (with integer-preserving
// printing), strings are escaped per RFC 8259. This is an internal tool for
// traces and metric snapshots, not a general-purpose JSON library.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace avtk::obs::json {

class value;

/// Object preserving insertion order (exporter output is diff-friendly).
using object = std::vector<std::pair<std::string, value>>;
using array = std::vector<value>;

class value {
 public:
  value() : data_(nullptr) {}
  value(std::nullptr_t) : data_(nullptr) {}
  value(bool b) : data_(b) {}
  /// Any non-bool arithmetic type; stored as double (JSON number).
  template <typename T,
            std::enable_if_t<std::is_arithmetic_v<T> && !std::is_same_v<T, bool>, int> = 0>
  value(T n) : data_(static_cast<double>(n)) {}
  value(const char* s) : data_(std::string(s)) {}
  value(std::string s) : data_(std::move(s)) {}
  value(array a) : data_(std::move(a)) {}
  value(object o) : data_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_number() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<array>(data_); }
  bool is_object() const { return std::holds_alternative<object>(data_); }

  bool as_bool() const { return std::get<bool>(data_); }
  double as_number() const { return std::get<double>(data_); }
  const std::string& as_string() const { return std::get<std::string>(data_); }
  const array& as_array() const { return std::get<array>(data_); }
  const object& as_object() const { return std::get<object>(data_); }

  /// Object member lookup; nullptr when absent or not an object.
  const value* find(std::string_view key) const;

  /// Serializes the tree. `indent` > 0 pretty-prints.
  std::string dump(int indent = 0) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, array, object> data_;
};

/// Deepest array/object nesting parse() accepts.
inline constexpr int k_max_depth = 64;

/// Parses a complete JSON document; std::nullopt on any syntax error,
/// trailing garbage or nesting deeper than k_max_depth. Good enough to
/// round-trip everything `dump` emits.
std::optional<value> parse(std::string_view text);

/// Escapes a string per JSON rules (adds surrounding quotes).
std::string escape(std::string_view s);

}  // namespace avtk::obs::json
