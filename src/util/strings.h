// avtk/util/strings.h
//
// Small string utilities used throughout the toolkit. Everything operates on
// std::string_view where possible and returns owned strings only when the
// result must outlive the input.
#pragma once

#include <concepts>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace avtk::str {

/// Returns `s` without leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Returns `s` lower-cased (ASCII only).
std::string to_lower(std::string_view s);

/// `s` lower-cased (ASCII only) into `buf`, as a view of `buf`; nullopt
/// when `s` does not fit. Never allocates.
std::optional<std::string_view> lower_into(std::string_view s, std::span<char> buf);

/// Splits `s` on every occurrence of `sep` into views of `s`. Adjacent
/// separators yield empty fields; there are always (number of separators +
/// 1) fields. Writes the first `out.size()` of them to `out` and returns how
/// many there are, which may be more. Never allocates.
std::size_t split_into(std::string_view s, char sep, std::span<std::string_view> out);

/// As above, on the multi-character separator `sep`; an empty `sep` yields
/// `s` whole.
std::size_t split_into(std::string_view s, std::string_view sep,
                       std::span<std::string_view> out);

/// Splits `s` on runs of ASCII whitespace and of the characters in `also`;
/// never yields empty fields. Writes and counts as split_into does.
std::size_t split_whitespace_into(std::string_view s, std::span<std::string_view> out,
                                  std::string_view also = {});

/// Every field of split_into / split_whitespace_into, as views of `s`.
std::vector<std::string_view> split(std::string_view s, char sep);
std::vector<std::string_view> split_whitespace(std::string_view s);

/// A temporary std::string dies at the end of the call's full expression,
/// so views of its fields would dangle (`for (auto f : split(make(), ','))`):
/// splitting one does not compile.
template <typename S>
concept temporary_string =
    !std::is_lvalue_reference_v<S> && std::same_as<std::remove_cv_t<S>, std::string>;
template <temporary_string S, typename Sep>
std::size_t split_into(S&&, Sep, std::span<std::string_view>) = delete;
template <temporary_string S>
std::size_t split_whitespace_into(S&&, std::span<std::string_view>, std::string_view = {}) = delete;
template <temporary_string S, typename Sep>
std::vector<std::string_view> split(S&&, Sep) = delete;
template <temporary_string S>
std::vector<std::string_view> split_whitespace(S&&) = delete;

/// Joins `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with / contains `needle`.
bool starts_with(std::string_view s, std::string_view prefix);
bool contains(std::string_view s, std::string_view needle);

/// Case-insensitive variants (ASCII).
bool iequals(std::string_view a, std::string_view b);
bool icontains(std::string_view s, std::string_view needle);

/// Collapses runs of whitespace in `s` to a single space and trims it, in
/// place; returns whether `s` changed. Never allocates.
bool normalize_whitespace(std::string& s);

/// Parses a decimal integer / floating-point number; std::nullopt when `s`
/// (after trimming) is not entirely a number.
std::optional<long long> parse_int(std::string_view s);
std::optional<double> parse_double(std::string_view s);

/// Parses a number that may carry thousands separators ("1,116,605") or a
/// trailing '%' sign.
std::optional<double> parse_number_lenient(std::string_view s);

/// Levenshtein edit distance; O(|a|*|b|) time, O(min) space.
std::size_t edit_distance(std::string_view a, std::string_view b);

/// True when edit_distance(a, b) <= k. Strips the common prefix and suffix,
/// then runs a DP over the 2k+1 diagonals around the main one,
/// O(k*max(|a|,|b|)) time, that stops as soon as a whole row of the band
/// exceeds k. It allocates only when the shorter remainder is longer than
/// 64 characters. Use it for every threshold test.
bool within_edit_distance(std::string_view a, std::string_view b, std::size_t k);

/// True if `c` is ASCII whitespace / an ASCII letter / digit. Inline: the
/// line kernels call them once per character.
constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v';
}
constexpr bool is_alpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }
constexpr bool is_alnum(char c) { return is_alpha(c) || is_digit(c); }

/// `c` lower-cased / upper-cased (ASCII only).
constexpr char lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}
constexpr char upper(char c) {
  return (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
}

}  // namespace avtk::str
