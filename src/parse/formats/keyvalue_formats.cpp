// Key-value pipe-separated format: Delphi.
//   Mileage: DEL-01 | Oct 2014 | 1032.5
//   Date: 1/12/15 | Vehicle: DEL-01 | Mode: Auto | Reaction: 0.90 s |
//   Road: Highway | Weather: Sunny | Cause: ...
#include "parse/formats/common.h"

#include <array>
#include <span>

#include "util/dates.h"
#include "util/strings.h"

namespace avtk::parse::formats {

using dataset::disengagement_record;
using dataset::mileage_record;

namespace {

// "Key: value" as trimmed views of the part; the key is not lower-cased.
struct key_value {
  std::string_view key;
  std::string_view value;
};

std::optional<key_value> split_kv(std::string_view part) {
  const auto colon = part.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const auto key = str::trim(part.substr(0, colon));
  if (key.empty()) return std::nullopt;
  return key_value{key, str::trim(part.substr(colon + 1))};
}

bool key_is(std::string_view key, std::string_view target) {
  // OCR tolerance on the short keys: distance 1, ignoring case. A key
  // too long for the buffer is too far from every target.
  std::array<char, 16> buf{};
  const auto lower = str::lower_into(key, buf);
  return lower && str::within_edit_distance(*lower, target, 1);
}

}  // namespace

std::optional<parsed_line> read_delphi_line(std::string_view line) {
  // Real lines have at most seven parts; a longer one (scan garbage) is
  // split again onto the heap.
  std::array<std::string_view, 8> fixed;
  const std::size_t count = str::split_into(line, '|', fixed);
  std::vector<std::string_view> spilled;
  if (count > fixed.size()) spilled = str::split(line, '|');
  const auto parts = spilled.empty() ? std::span<const std::string_view>(fixed).first(count)
                                     : std::span<const std::string_view>(spilled);

  // Mileage line: "Mileage: <vehicle> | <month> | <miles>".
  {
    const auto kv = split_kv(parts[0]);
    if (kv && key_is(kv->key, "mileage") && parts.size() == 3) {
      const auto month = dates::parse_year_month(parts[1]);
      const auto miles = parse_miles(parts[2]);
      if (!month || !miles || kv->value.empty()) return std::nullopt;
      mileage_record m;
      m.vehicle_id = std::string(kv->value);
      m.month = *month;
      m.miles = *miles;
      return parsed_line{std::nullopt, std::move(m)};
    }
  }

  // Event line: every part is "Key: value".
  disengagement_record d;
  bool saw_date = false;
  bool saw_cause = false;
  for (const auto part : parts) {
    const auto kv = split_kv(part);
    if (!kv) return std::nullopt;
    const auto [key, value] = *kv;
    if (key_is(key, "date")) {
      const auto date = dates::parse_date(value);
      if (!date) return std::nullopt;
      d.event_date = *date;
      saw_date = true;
    } else if (key_is(key, "vehicle")) {
      d.vehicle_id = std::string(value);
    } else if (key_is(key, "mode")) {
      d.mode = dataset::modality_from_string(value).value_or(dataset::modality::unknown);
    } else if (key_is(key, "reaction")) {
      d.reaction_time_s = parse_reaction_field(value);
    } else if (key_is(key, "road")) {
      d.road = dataset::road_type_from_string(value).value_or(dataset::road_type::unknown);
    } else if (key_is(key, "weather")) {
      d.conditions = dataset::weather_from_string(value).value_or(dataset::weather::unknown);
    } else if (key_is(key, "cause")) {
      d.description = std::string(value);
      saw_cause = true;
    }
    // Unknown keys are tolerated: formats drift across releases.
  }
  if (!saw_date || !saw_cause || d.description.empty()) return std::nullopt;
  return parsed_line{std::move(d), std::nullopt};
}

}  // namespace avtk::parse::formats
