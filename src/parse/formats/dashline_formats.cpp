// Double-hyphen-separated line formats: Nissan, Volkswagen, Waymo
// (the styles quoted in the paper's Table II).
//
//   Nissan:  1/4/16 -- 1:25 PM -- Leaf 1 (Alfa) -- <cause> -- City Street
//            -- Sunny/Dry -- Auto -- 1.10 s
//   VW:      11/12/14 -- 18:24:03 -- Takeover-Request -- watchdog error -- 1.2 s
//   Waymo:   May-16 -- Highway -- Safe Operation -- <cause> -- 0.70 s
//
// Mileage lines in all three: <vehicle> -- <month> -- <miles>.
#include "parse/formats/common.h"

#include <array>

#include "util/dates.h"
#include "util/strings.h"

namespace avtk::parse::formats {

using dataset::disengagement_record;
using dataset::mileage_record;
using dataset::modality;

namespace {

// A line's " -- "-separated parts, trimmed, as views of the line. Lines of
// these formats have at most eight parts; `count` counts every part.
struct dash_parts {
  std::array<std::string_view, 8> part;
  std::size_t count = 0;

  explicit dash_parts(std::string_view line) : count(str::split_into(line, " -- ", part)) {
    for (auto& p : part) p = str::trim(p);
  }
  std::size_t size() const { return count; }
  std::string_view operator[](std::size_t i) const { return part[i]; }
};

// <vehicle> -- <month> -- <miles>
std::optional<mileage_record> try_dash_mileage(const dash_parts& parts) {
  if (parts.size() != 3) return std::nullopt;
  const auto month = dates::parse_year_month(parts[1]);
  const auto miles = parse_miles(parts[2]);
  if (!month || !miles || parts[0].empty()) return std::nullopt;
  // Guard against misreading an event line: the vehicle field must not
  // itself be a date or month.
  if (dates::parse_date(parts[0]) || dates::parse_year_month(parts[0])) return std::nullopt;
  mileage_record m;
  m.vehicle_id = std::string(parts[0]);
  m.month = *month;
  m.miles = *miles;
  return m;
}

// True when `marker` is within edit distance 3 of "takeover-request",
// ignoring case.
bool near_takeover_request(std::string_view marker) {
  constexpr std::string_view k_target = "takeover-request";
  constexpr std::size_t k_slack = 3;
  std::array<char, k_target.size() + k_slack> buf{};
  const auto lower = str::lower_into(marker, buf);  // longer is too far
  return lower && str::within_edit_distance(*lower, k_target, k_slack);
}

}  // namespace

std::optional<parsed_line> read_nissan_line(std::string_view line) {
  const dash_parts parts(line);
  if (auto m = try_dash_mileage(parts)) return parsed_line{std::nullopt, std::move(m)};

  // date -- time -- vehicle -- cause -- road -- weather/dry -- mode [-- reaction]
  if (parts.size() < 7 || parts.size() > 8) return std::nullopt;
  const auto date = dates::parse_date(parts[0]);
  if (!date) return std::nullopt;
  disengagement_record d;
  d.event_date = *date;
  d.vehicle_id = std::string(parts[2]);
  d.description = std::string(parts[3]);
  d.road = dataset::road_type_from_string(parts[4]).value_or(dataset::road_type::unknown);
  // "Sunny/Dry" -> take the weather half.
  d.conditions = dataset::weather_from_string(parts[5].substr(0, parts[5].find('/')))
                     .value_or(dataset::weather::unknown);
  d.mode = dataset::modality_from_string(parts[6]).value_or(modality::unknown);
  if (parts.size() == 8) d.reaction_time_s = parse_reaction_field(parts[7]);
  if (d.description.empty() || d.vehicle_id.empty()) return std::nullopt;
  return parsed_line{std::move(d), std::nullopt};
}

std::optional<parsed_line> read_volkswagen_line(std::string_view line) {
  const dash_parts parts(line);
  if (auto m = try_dash_mileage(parts)) return parsed_line{std::nullopt, std::move(m)};

  // date -- time -- Takeover-Request -- cause [-- reaction]
  if (parts.size() < 4 || parts.size() > 5) return std::nullopt;
  const auto date = dates::parse_date(parts[0]);
  if (!date) return std::nullopt;
  if (!str::icontains(parts[2], "takeover")) {
    // Tolerate OCR damage in the marker: accept when it is at least close.
    if (!near_takeover_request(parts[2])) return std::nullopt;
  }
  disengagement_record d;
  d.event_date = *date;
  d.mode = modality::automatic;  // every VW takeover request is system-initiated
  d.description = std::string(parts[3]);
  if (parts.size() == 5) d.reaction_time_s = parse_reaction_field(parts[4]);
  if (d.description.empty()) return std::nullopt;
  return parsed_line{std::move(d), std::nullopt};
}

std::optional<parsed_line> read_waymo_line(std::string_view line) {
  const dash_parts parts(line);
  if (auto m = try_dash_mileage(parts)) return parsed_line{std::nullopt, std::move(m)};

  // month -- road -- marker -- cause [-- reaction]
  if (parts.size() < 4 || parts.size() > 5) return std::nullopt;
  const auto month = dates::parse_year_month(parts[0]);
  if (!month) return std::nullopt;
  disengagement_record d;
  d.event_month = *month;
  d.road = dataset::road_type_from_string(parts[1]).value_or(dataset::road_type::unknown);
  const auto marker = parts[2];
  if (str::icontains(marker, "safe")) {
    d.mode = modality::manual;
  } else if (str::icontains(marker, "auto")) {
    d.mode = modality::automatic;
  } else if (str::icontains(marker, "plan")) {
    d.mode = modality::planned;
  } else {
    d.mode = modality::unknown;
  }
  d.description = std::string(parts[3]);
  if (parts.size() == 5) d.reaction_time_s = parse_reaction_field(parts[4]);
  if (d.description.empty()) return std::nullopt;
  return parsed_line{std::move(d), std::nullopt};
}

}  // namespace avtk::parse::formats
