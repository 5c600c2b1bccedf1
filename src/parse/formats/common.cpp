#include "parse/formats/common.h"

#include <algorithm>
#include <array>
#include <span>

#include "nlp/tokenizer.h"
#include "util/errors.h"
#include "util/strings.h"

namespace avtk::parse::formats {

using dataset::manufacturer;

line_reader reader_for(manufacturer maker) {
  switch (maker) {
    case manufacturer::mercedes_benz: return &read_benz_line;
    case manufacturer::bosch: return &read_bosch_line;
    case manufacturer::delphi: return &read_delphi_line;
    case manufacturer::gm_cruise: return &read_gm_cruise_line;
    case manufacturer::nissan: return &read_nissan_line;
    case manufacturer::tesla: return &read_tesla_line;
    case manufacturer::volkswagen: return &read_volkswagen_line;
    case manufacturer::waymo: return &read_waymo_line;
    default: return &read_simple_csv_line;
  }
}

namespace {

// Section-marker and column-header words across all formats.
constexpr std::string_view k_marker_words[] = {
    "section", "mileage",  "disengagements", "disengagement", "takeover", "events",  "autonomous",
    "monthly", "summary",  "miles",          "reporting",     "release",  "planned"};

// True when `word`, lower-cased, is within edit distance 1 of one of
// `targets` (lower-case, shorter than 16 letters). Words too long to be
// within distance 1 of any target are not lower-cased at all.
bool near_any(std::string_view word, std::span<const std::string_view> targets) {
  std::array<char, 16> buf{};
  const auto lower = str::lower_into(word, buf);
  return lower && std::ranges::any_of(targets, [&](std::string_view target) {
           return str::within_edit_distance(*lower, target, 1);
         });
}

constexpr std::string_view k_header_labels[] = {"dmv", "reporting"};
constexpr std::string_view k_column_labels[] = {"date", "vehicle", "vin", "month"};

}  // namespace

bool is_structural_line(std::string_view line) {
  const auto trimmed = str::trim(line);
  if (trimmed.empty()) return true;
  // A data line contains digits somewhere (dates, miles); a pure marker or
  // header does not — except CSV headers like "Reaction Time (s)" which
  // contain no digits either. Only such digit-free lines are tokenized.
  if (std::ranges::none_of(trimmed, str::is_digit)) {
    std::size_t pos = 0;
    for (auto t = nlp::next_token_view(trimmed, pos); !t.empty();
         t = nlp::next_token_view(trimmed, pos)) {
      if (near_any(t, k_marker_words)) return true;
    }
  }
  // Header block lines ("DMV Release: 2016", "Reporting Period: ...") carry
  // digits but START with these labels — data lines never do. `trimmed`
  // starts with a non-space, so its first word runs to the first space.
  const auto first_word =
      trimmed.substr(0, static_cast<std::size_t>(std::ranges::find_if(trimmed, str::is_space) -
                                                 trimmed.begin()));
  if (near_any(first_word, k_header_labels)) return true;
  // CSV column-header rows: start with "Date"/"Vehicle"/"VIN".
  const auto first_field = str::trim(trimmed.substr(0, trimmed.find(',')));
  return std::ranges::any_of(k_column_labels, [&](std::string_view label) {
    return str::iequals(first_field, label);
  });
}

std::optional<double> parse_reaction_seconds(std::string_view text) {
  auto t = str::trim(text);
  if (t.empty()) return std::nullopt;
  if (t.size() >= 1 && (t.back() == 's' || t.back() == 'S')) {
    t = str::trim(t.substr(0, t.size() - 1));
  }
  const auto v = str::parse_double(t);
  if (!v || *v < 0) return std::nullopt;
  return v;
}

std::optional<double> parse_reaction_field(std::string_view text) {
  auto t = str::trim(text);
  if (t.empty()) return std::nullopt;
  // Range "0.5-1.2 s" -> upper bound (the paper: "We assume the reaction
  // times to be upper bounded where they are listed as ranges").
  const auto dash = t.find('-');
  if (dash != std::string_view::npos && dash > 0 && dash + 1 < t.size() &&
      str::is_digit(t[dash - 1]) && (str::is_digit(t[dash + 1]) || t[dash + 1] == '.')) {
    return parse_reaction_seconds(t.substr(dash + 1));
  }
  return parse_reaction_seconds(t);
}

std::optional<double> parse_miles(std::string_view text) {
  const auto v = str::parse_number_lenient(text);
  if (!v || *v < 0) return std::nullopt;
  return v;
}

}  // namespace avtk::parse::formats
