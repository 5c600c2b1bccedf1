#include "util/strings.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cstdlib>

namespace avtk::str {

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), lower);
  return out;
}

std::optional<std::string_view> lower_into(std::string_view s, std::span<char> buf) {
  if (s.size() > buf.size()) return std::nullopt;
  std::ranges::transform(s, buf.begin(), lower);
  return std::string_view(buf.data(), s.size());
}

namespace {

// Counts the fields `next_end` cuts `s` into, storing the first
// out.size() of them. `next_end(start)` is where the field starting at
// `start` ends, npos for the last one; a field is followed by `sep_len`
// separator bytes.
template <typename NextEnd>
std::size_t fill_fields(std::string_view s, std::size_t sep_len, std::span<std::string_view> out,
                        NextEnd next_end) {
  std::size_t count = 0;
  std::size_t start = 0;
  while (true) {
    const std::size_t end = next_end(start);
    const auto field = s.substr(start, end == std::string_view::npos ? s.npos : end - start);
    if (count < out.size()) out[count] = field;
    ++count;
    if (end == std::string_view::npos) return count;
    start = end + sep_len;
  }
}

// The vector form of a split_into overload: one pass to count, one to fill.
template <typename Split>
std::vector<std::string_view> collect(Split split) {
  std::vector<std::string_view> out(split(std::span<std::string_view>()));
  split(std::span<std::string_view>(out));
  return out;
}

}  // namespace

std::size_t split_into(std::string_view s, char sep, std::span<std::string_view> out) {
  return fill_fields(s, 1, out, [&](std::size_t start) { return s.find(sep, start); });
}

std::size_t split_into(std::string_view s, std::string_view sep,
                       std::span<std::string_view> out) {
  if (sep.empty()) {
    return fill_fields(s, 0, out, [](std::size_t) { return std::string_view::npos; });
  }
  return fill_fields(s, sep.size(), out, [&](std::size_t start) { return s.find(sep, start); });
}

std::size_t split_whitespace_into(std::string_view s, std::span<std::string_view> out,
                                  std::string_view also) {
  const auto is_sep = [&](char c) { return is_space(c) || also.find(c) != also.npos; };
  std::size_t count = 0;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_sep(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_sep(s[i])) ++i;
    if (i > start) {
      if (count < out.size()) out[count] = s.substr(start, i - start);
      ++count;
    }
  }
  return count;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  return collect([&](std::span<std::string_view> out) { return split_into(s, sep, out); });
}

std::vector<std::string_view> split_whitespace(std::string_view s) {
  return collect([&](std::span<std::string_view> out) { return split_whitespace_into(s, out); });
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool contains(std::string_view s, std::string_view needle) {
  return s.find(needle) != std::string_view::npos;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (lower(a[i]) != lower(b[i])) return false;
  }
  return true;
}

bool icontains(std::string_view s, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > s.size()) return false;
  for (std::size_t i = 0; i + needle.size() <= s.size(); ++i) {
    if (iequals(s.substr(i, needle.size()), needle)) return true;
  }
  return false;
}

bool normalize_whitespace(std::string& s) {
  // The output never outgrows the input, so it is written over the input
  // from the front; `out` trails the read position.
  std::size_t out = 0;
  bool changed = false;
  bool in_space = true;  // leading spaces are dropped
  for (const char c : s) {
    const bool space = is_space(c);
    if (space && in_space) continue;  // leading whitespace or a run's tail
    const char kept = space ? ' ' : c;
    changed |= s[out] != kept;
    s[out++] = kept;
    in_space = space;
  }
  if (out > 0 && s[out - 1] == ' ') --out;  // one trailing space at most
  changed |= out != s.size();
  s.resize(out);
  return changed;
}

std::optional<long long> parse_int(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  long long value = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  // std::from_chars for double is not universally available; strtod on a
  // bounded copy keeps this portable.
  std::string buf(s);
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return value;
}

std::optional<double> parse_number_lenient(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  std::string cleaned;
  cleaned.reserve(s.size());
  for (char c : s) {
    if (c == ',') continue;
    cleaned += c;
  }
  double scale = 1.0;
  if (!cleaned.empty() && cleaned.back() == '%') {
    cleaned.pop_back();
    scale = 0.01;
  }
  const auto value = parse_double(cleaned);
  if (!value) return std::nullopt;
  return *value * scale;
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<std::size_t> prev(a.size() + 1);
  std::vector<std::size_t> cur(a.size() + 1);
  for (std::size_t i = 0; i <= a.size(); ++i) prev[i] = i;
  for (std::size_t j = 1; j <= b.size(); ++j) {
    cur[0] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      const std::size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[a.size()];
}

bool within_edit_distance(std::string_view a, std::string_view b, std::size_t k) {
  if (a.size() > b.size()) std::swap(a, b);
  if (b.size() - a.size() > k) return false;
  // A common prefix or suffix never changes the distance.
  while (!a.empty() && a.front() == b.front()) {
    a.remove_prefix(1);
    b.remove_prefix(1);
  }
  while (!a.empty() && a.back() == b.back()) {
    a.remove_suffix(1);
    b.remove_suffix(1);
  }
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (m <= k) return true;  // the distance never exceeds the longer length

  // Two DP rows over a's prefixes, saturated at k + 1. Row j only computes
  // columns [j - k, j + k]; the cell just right of the band is set to the
  // cap so the next row never reads a stale value from two rows back.
  constexpr std::size_t k_stack_len = 64;
  std::array<std::size_t, 2 * (k_stack_len + 1)> stack_rows{};
  std::vector<std::size_t> heap_rows;
  std::size_t* prev = stack_rows.data();
  if (n > k_stack_len) {
    heap_rows.resize(2 * (n + 1));
    prev = heap_rows.data();
  }
  std::size_t* cur = prev + n + 1;
  const std::size_t cap = k + 1;
  for (std::size_t i = 0; i <= n; ++i) prev[i] = std::min(i, cap);
  for (std::size_t j = 1; j <= m; ++j) {
    const std::size_t lo = j > k ? j - k : 1;
    const std::size_t hi = std::min(n, j + k);
    cur[lo - 1] = lo == 1 ? std::min(j, cap) : cap;
    std::size_t row_min = cur[lo - 1];
    for (std::size_t i = lo; i <= hi; ++i) {
      const std::size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub, cap});
      row_min = std::min(row_min, cur[i]);
    }
    if (hi < n) cur[hi + 1] = cap;
    // Every alignment path crosses this row, and DP values never decrease
    // along a path, so a row wholly above k decides the answer.
    if (row_min > k) return false;
    std::swap(prev, cur);
  }
  return prev[n] <= k;
}

}  // namespace avtk::str
