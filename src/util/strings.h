// avtk/util/strings.h
//
// Small string utilities used throughout the toolkit. Everything operates on
// std::string_view where possible and returns owned strings only when the
// result must outlive the input.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace avtk::str {

/// Returns `s` without leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Returns `s` lower-cased (ASCII only).
std::string to_lower(std::string_view s);

/// Returns `s` upper-cased (ASCII only).
std::string to_upper(std::string_view s);

/// Splits `s` on every occurrence of `sep`. Adjacent separators yield empty
/// fields; the result always has (number of separators + 1) entries.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits `s` on the multi-character separator `sep`.
std::vector<std::string> split(std::string_view s, std::string_view sep);

/// Splits `s` on runs of ASCII whitespace; never yields empty fields.
std::vector<std::string> split_whitespace(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with / ends with / contains `needle`.
bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);
bool contains(std::string_view s, std::string_view needle);

/// Case-insensitive variants (ASCII).
bool iequals(std::string_view a, std::string_view b);
bool icontains(std::string_view s, std::string_view needle);

/// Replaces every occurrence of `from` with `to`. `from` must be non-empty.
std::string replace_all(std::string_view s, std::string_view from, std::string_view to);

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

/// True if `c` is an ASCII letter/digit.
bool is_alpha(char c);
bool is_digit(char c);
bool is_alnum(char c);

}  // namespace avtk::str
