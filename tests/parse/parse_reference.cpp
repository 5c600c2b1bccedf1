#include "parse_reference.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "nlp/tokenizer.h"
#include "parse/report_header.h"
#include "util/errors.h"
#include "util/strings.h"

namespace avtk::parse::testing {

namespace {

using dataset::disengagement_record;
using dataset::mileage_record;
using dataset::modality;
using formats::parsed_line;

// ------------------------------------------------ owning splits and CSV

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split(std::string_view s, std::string_view sep) {
  if (sep.empty()) return {std::string(s)};
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + sep.size();
  }
  return out;
}

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v';
}

std::vector<std::string> split_whitespace(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

// One CSV line (no embedded newlines) into owned, unescaped fields;
// nullopt on an unterminated quote or a line break.
std::optional<std::vector<std::string>> csv_fields(std::string_view line) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const char c = line[pos];
    if (in_quotes) {
      if (c == '"') {
        if (pos + 1 < line.size() && line[pos + 1] == '"') {
          field += '"';
          pos += 2;
        } else {
          in_quotes = false;
          ++pos;
        }
      } else {
        field += c;
        ++pos;
      }
    } else if (c == '"' && field.empty()) {
      in_quotes = true;
      ++pos;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
      ++pos;
    } else if (c == '\n' || c == '\r') {
      return std::nullopt;
    } else {
      field += c;
      ++pos;
    }
  }
  if (in_quotes) return std::nullopt;
  fields.push_back(std::move(field));
  return fields;
}

int expand_two_digit_year(int y) { return y < 100 ? 2000 + y : y; }

// ------------------------------------------------------------- structure

constexpr std::string_view k_marker_words[] = {
    "section", "mileage",  "disengagements", "disengagement", "takeover", "events",  "autonomous",
    "monthly", "summary",  "miles",          "reporting",     "release",  "planned"};

bool is_marker_word(std::string_view token) {
  return std::ranges::any_of(k_marker_words, [&](std::string_view word) {
    return str::within_edit_distance(token, word, 1);
  });
}

// ------------------------------------------------------------ CSV formats

std::optional<mileage_record> try_mileage(const std::vector<std::string>& fields) {
  if (fields.size() != 3) return std::nullopt;
  const auto month = reference_parse_year_month(fields[1]);
  const auto miles = formats::parse_miles(fields[2]);
  if (!month || !miles || str::trim(fields[0]).empty()) return std::nullopt;
  mileage_record m;
  m.vehicle_id = std::string(str::trim(fields[0]));
  m.month = *month;
  m.miles = *miles;
  return m;
}

// --------------------------------------------------------- dash formats

std::vector<std::string> split_dash(std::string_view line) {
  std::vector<std::string> out;
  for (auto& part : split(line, " -- ")) out.push_back(std::string(str::trim(part)));
  return out;
}

std::optional<mileage_record> try_dash_mileage(const std::vector<std::string>& parts) {
  if (parts.size() != 3) return std::nullopt;
  const auto month = reference_parse_year_month(parts[1]);
  const auto miles = formats::parse_miles(parts[2]);
  if (!month || !miles || parts[0].empty()) return std::nullopt;
  if (reference_parse_date(parts[0]) || reference_parse_year_month(parts[0])) return std::nullopt;
  mileage_record m;
  m.vehicle_id = parts[0];
  m.month = *month;
  m.miles = *miles;
  return m;
}

// ----------------------------------------------------- key-value format

std::optional<std::pair<std::string, std::string>> split_kv(std::string_view part) {
  const auto colon = part.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  auto key = str::to_lower(str::trim(part.substr(0, colon)));
  auto value = std::string(str::trim(part.substr(colon + 1)));
  if (key.empty()) return std::nullopt;
  return std::make_pair(std::move(key), std::move(value));
}

bool key_is(const std::string& key, std::string_view target) {
  return str::within_edit_distance(key, target, 1);
}

std::vector<const std::string*> flatten(const ocr::document& doc) {
  std::vector<const std::string*> lines;
  for (const auto& p : doc.pages) {
    for (const auto& l : p.lines) lines.push_back(&l);
  }
  return lines;
}

}  // namespace

bool reference_is_structural_line(std::string_view line) {
  const auto trimmed = str::trim(line);
  if (trimmed.empty()) return true;
  if (std::ranges::none_of(trimmed, str::is_digit) &&
      std::ranges::any_of(nlp::tokenize(trimmed),
                          [](const nlp::token& t) { return is_marker_word(t.text); })) {
    return true;
  }
  {
    const auto words = split_whitespace(trimmed);
    if (!words.empty()) {
      const auto first_word = str::to_lower(words[0]);
      for (const char* label : {"dmv", "reporting"}) {
        if (str::within_edit_distance(first_word, label, 1)) return true;
      }
    }
  }
  const std::string first{str::trim(split(trimmed, ',').front())};
  for (const char* label : {"date", "vehicle", "vin", "month"}) {
    if (str::iequals(first, label)) return true;
  }
  return false;
}

std::optional<date> reference_parse_date(std::string_view s) {
  s = str::trim(s);
  if (s.empty()) return std::nullopt;
  {
    const auto parts = split(s, '-');
    if (parts.size() == 3) {
      const auto y = str::parse_int(parts[0]);
      const auto m = str::parse_int(parts[1]);
      const auto d = str::parse_int(parts[2]);
      if (y && m && d && parts[0].size() == 4 &&
          date::valid(static_cast<int>(*y), static_cast<int>(*m), static_cast<int>(*d))) {
        return date::make(static_cast<int>(*y), static_cast<int>(*m), static_cast<int>(*d));
      }
    }
  }
  {
    const auto parts = split(s, '/');
    if (parts.size() == 3) {
      const auto m = str::parse_int(parts[0]);
      const auto d = str::parse_int(parts[1]);
      const auto y = str::parse_int(parts[2]);
      if (m && d && y) {
        const int year = expand_two_digit_year(static_cast<int>(*y));
        if (date::valid(year, static_cast<int>(*m), static_cast<int>(*d))) {
          return date::make(year, static_cast<int>(*m), static_cast<int>(*d));
        }
      }
    }
  }
  {
    const std::string cleaned = replace_all(s, ",", " ");
    const auto parts = split_whitespace(cleaned);
    if (parts.size() == 3) {
      const auto m = dates::month_from_name(parts[0]);
      const auto d = str::parse_int(parts[1]);
      const auto y = str::parse_int(parts[2]);
      if (m && d && y) {
        const int year = expand_two_digit_year(static_cast<int>(*y));
        if (date::valid(year, *m, static_cast<int>(*d))) {
          return date::make(year, *m, static_cast<int>(*d));
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<year_month> reference_parse_year_month(std::string_view s) {
  s = str::trim(s);
  if (s.empty()) return std::nullopt;
  {
    const auto parts = split(s, '-');
    if (parts.size() == 2) {
      const auto m = dates::month_from_name(parts[0]);
      const auto y = str::parse_int(parts[1]);
      if (m && y) {
        return year_month{static_cast<std::int32_t>(expand_two_digit_year(static_cast<int>(*y))),
                          static_cast<std::uint8_t>(*m)};
      }
      const auto y2 = str::parse_int(parts[0]);
      const auto m2 = str::parse_int(parts[1]);
      if (y2 && m2 && parts[0].size() == 4 && *m2 >= 1 && *m2 <= 12) {
        return year_month{static_cast<std::int32_t>(*y2), static_cast<std::uint8_t>(*m2)};
      }
    }
  }
  {
    const auto parts = split_whitespace(s);
    if (parts.size() == 2) {
      const auto m = dates::month_from_name(parts[0]);
      const auto y = str::parse_int(parts[1]);
      if (m && y && *y >= 1900) {
        return year_month{static_cast<std::int32_t>(*y), static_cast<std::uint8_t>(*m)};
      }
    }
  }
  return std::nullopt;
}

std::optional<parsed_line> reference_read_benz_line(std::string_view line) {
  const auto fields = csv_fields(line);
  if (!fields) return std::nullopt;
  if (auto m = try_mileage(*fields)) return parsed_line{std::nullopt, std::move(m)};
  if (fields->size() != 7) return std::nullopt;
  const auto date = reference_parse_date((*fields)[0]);
  if (!date) return std::nullopt;
  disengagement_record d;
  d.event_date = *date;
  d.vehicle_id = std::string(str::trim((*fields)[1]));
  const auto initiated = str::trim((*fields)[2]);
  if (str::iequals(initiated, "Driver")) {
    d.mode = modality::manual;
  } else if (str::iequals(initiated, "ADS")) {
    d.mode = modality::automatic;
  } else if (const auto m = dataset::modality_from_string(initiated)) {
    d.mode = *m;
  }
  d.reaction_time_s = formats::parse_reaction_field((*fields)[3]);
  d.road = dataset::road_type_from_string((*fields)[4]).value_or(dataset::road_type::unknown);
  d.conditions = dataset::weather_from_string((*fields)[5]).value_or(dataset::weather::unknown);
  d.description = (*fields)[6];
  if (d.description.empty()) return std::nullopt;
  return parsed_line{std::move(d), std::nullopt};
}

std::optional<parsed_line> reference_read_bosch_line(std::string_view line) {
  const auto fields = csv_fields(line);
  if (!fields) return std::nullopt;
  if (auto m = try_mileage(*fields)) return parsed_line{std::nullopt, std::move(m)};
  if (fields->size() != 4) return std::nullopt;
  const auto date = reference_parse_date((*fields)[0]);
  if (!date) return std::nullopt;
  disengagement_record d;
  d.event_date = *date;
  d.vehicle_id = std::string(str::trim((*fields)[1]));
  d.mode = modality::planned;
  d.description = (*fields)[3];
  if (d.description.empty()) return std::nullopt;
  return parsed_line{std::move(d), std::nullopt};
}

std::optional<parsed_line> reference_read_gm_cruise_line(std::string_view line) {
  return reference_read_bosch_line(line);
}

std::optional<parsed_line> reference_read_tesla_line(std::string_view line) {
  const auto fields = csv_fields(line);
  if (!fields) return std::nullopt;
  if (auto m = try_mileage(*fields)) return parsed_line{std::nullopt, std::move(m)};
  if (fields->size() != 5) return std::nullopt;
  const auto date = reference_parse_date((*fields)[0]);
  if (!date) return std::nullopt;
  disengagement_record d;
  d.event_date = *date;
  d.vehicle_id = std::string(str::trim((*fields)[1]));
  d.mode = dataset::modality_from_string((*fields)[2]).value_or(modality::unknown);
  d.reaction_time_s = formats::parse_reaction_field((*fields)[3]);
  d.description = (*fields)[4];
  if (d.description.empty()) return std::nullopt;
  return parsed_line{std::move(d), std::nullopt};
}

std::optional<parsed_line> reference_read_simple_csv_line(std::string_view line) {
  const auto fields = csv_fields(line);
  if (!fields) return std::nullopt;
  if (auto m = try_mileage(*fields)) return parsed_line{std::nullopt, std::move(m)};
  if (fields->size() != 4) return std::nullopt;
  const auto date = reference_parse_date((*fields)[0]);
  if (!date) return std::nullopt;
  disengagement_record d;
  d.event_date = *date;
  d.vehicle_id = std::string(str::trim((*fields)[1]));
  d.mode = dataset::modality_from_string((*fields)[2]).value_or(modality::unknown);
  d.description = (*fields)[3];
  if (d.description.empty()) return std::nullopt;
  return parsed_line{std::move(d), std::nullopt};
}

std::optional<parsed_line> reference_read_nissan_line(std::string_view line) {
  const auto parts = split_dash(line);
  if (auto m = try_dash_mileage(parts)) return parsed_line{std::nullopt, std::move(m)};
  if (parts.size() < 7 || parts.size() > 8) return std::nullopt;
  const auto date = reference_parse_date(parts[0]);
  if (!date) return std::nullopt;
  disengagement_record d;
  d.event_date = *date;
  d.vehicle_id = parts[2];
  d.description = parts[3];
  d.road = dataset::road_type_from_string(parts[4]).value_or(dataset::road_type::unknown);
  d.conditions = dataset::weather_from_string(split(parts[5], '/').front())
                     .value_or(dataset::weather::unknown);
  d.mode = dataset::modality_from_string(parts[6]).value_or(modality::unknown);
  if (parts.size() == 8) d.reaction_time_s = formats::parse_reaction_field(parts[7]);
  if (d.description.empty() || d.vehicle_id.empty()) return std::nullopt;
  return parsed_line{std::move(d), std::nullopt};
}

std::optional<parsed_line> reference_read_volkswagen_line(std::string_view line) {
  const auto parts = split_dash(line);
  if (auto m = try_dash_mileage(parts)) return parsed_line{std::nullopt, std::move(m)};
  if (parts.size() < 4 || parts.size() > 5) return std::nullopt;
  const auto date = reference_parse_date(parts[0]);
  if (!date) return std::nullopt;
  if (!str::icontains(parts[2], "takeover")) {
    if (!str::within_edit_distance(str::to_lower(parts[2]), "takeover-request", 3)) {
      return std::nullopt;
    }
  }
  disengagement_record d;
  d.event_date = *date;
  d.mode = modality::automatic;
  d.description = parts[3];
  if (parts.size() == 5) d.reaction_time_s = formats::parse_reaction_field(parts[4]);
  if (d.description.empty()) return std::nullopt;
  return parsed_line{std::move(d), std::nullopt};
}

std::optional<parsed_line> reference_read_waymo_line(std::string_view line) {
  const auto parts = split_dash(line);
  if (auto m = try_dash_mileage(parts)) return parsed_line{std::nullopt, std::move(m)};
  if (parts.size() < 4 || parts.size() > 5) return std::nullopt;
  const auto month = reference_parse_year_month(parts[0]);
  if (!month) return std::nullopt;
  disengagement_record d;
  d.event_month = *month;
  d.road = dataset::road_type_from_string(parts[1]).value_or(dataset::road_type::unknown);
  const auto& marker = parts[2];
  if (str::icontains(marker, "safe")) {
    d.mode = modality::manual;
  } else if (str::icontains(marker, "auto")) {
    d.mode = modality::automatic;
  } else if (str::icontains(marker, "plan")) {
    d.mode = modality::planned;
  } else {
    d.mode = modality::unknown;
  }
  d.description = parts[3];
  if (parts.size() == 5) d.reaction_time_s = formats::parse_reaction_field(parts[4]);
  if (d.description.empty()) return std::nullopt;
  return parsed_line{std::move(d), std::nullopt};
}

std::optional<parsed_line> reference_read_delphi_line(std::string_view line) {
  const auto parts = split(line, '|');
  if (parts.empty()) return std::nullopt;
  {
    const auto kv = split_kv(parts[0]);
    if (kv && key_is(kv->first, "mileage") && parts.size() == 3) {
      const auto month = reference_parse_year_month(parts[1]);
      const auto miles = formats::parse_miles(parts[2]);
      if (!month || !miles || kv->second.empty()) return std::nullopt;
      mileage_record m;
      m.vehicle_id = kv->second;
      m.month = *month;
      m.miles = *miles;
      return parsed_line{std::nullopt, std::move(m)};
    }
  }
  disengagement_record d;
  bool saw_date = false;
  bool saw_cause = false;
  for (const auto& part : parts) {
    const auto kv = split_kv(part);
    if (!kv) return std::nullopt;
    const auto& [key, value] = *kv;
    if (key_is(key, "date")) {
      const auto date = reference_parse_date(value);
      if (!date) return std::nullopt;
      d.event_date = *date;
      saw_date = true;
    } else if (key_is(key, "vehicle")) {
      d.vehicle_id = value;
    } else if (key_is(key, "mode")) {
      d.mode = dataset::modality_from_string(value).value_or(dataset::modality::unknown);
    } else if (key_is(key, "reaction")) {
      d.reaction_time_s = formats::parse_reaction_field(value);
    } else if (key_is(key, "road")) {
      d.road = dataset::road_type_from_string(value).value_or(dataset::road_type::unknown);
    } else if (key_is(key, "weather")) {
      d.conditions = dataset::weather_from_string(value).value_or(dataset::weather::unknown);
    } else if (key_is(key, "cause")) {
      d.description = value;
      saw_cause = true;
    }
  }
  if (!saw_date || !saw_cause || d.description.empty()) return std::nullopt;
  return parsed_line{std::move(d), std::nullopt};
}

formats::line_reader reference_reader_for(dataset::manufacturer maker) {
  using dataset::manufacturer;
  switch (maker) {
    case manufacturer::mercedes_benz: return &reference_read_benz_line;
    case manufacturer::bosch: return &reference_read_bosch_line;
    case manufacturer::delphi: return &reference_read_delphi_line;
    case manufacturer::gm_cruise: return &reference_read_gm_cruise_line;
    case manufacturer::nissan: return &reference_read_nissan_line;
    case manufacturer::tesla: return &reference_read_tesla_line;
    case manufacturer::volkswagen: return &reference_read_volkswagen_line;
    case manufacturer::waymo: return &reference_read_waymo_line;
    default: return &reference_read_simple_csv_line;
  }
}

disengagement_parse_result reference_parse_disengagement_report(
    const ocr::document& doc, const ocr::document* manual_fallback) {
  auto id = identify_report(doc);
  if ((id.kind != report_kind::disengagement || !id.maker || !id.report_year) &&
      manual_fallback != nullptr) {
    id = identify_report(*manual_fallback);
  }
  if (id.kind != report_kind::disengagement) {
    throw header_error("document is not a disengagement report: " + doc.title);
  }
  if (!id.maker) throw header_error("cannot identify manufacturer of: " + doc.title);
  if (!id.report_year) throw header_error("cannot identify DMV release of: " + doc.title);

  disengagement_parse_result result;
  result.maker = *id.maker;
  result.report_year = *id.report_year;

  const auto reader = reference_reader_for(result.maker);
  const auto lines = flatten(doc);
  std::vector<const std::string*> fallback_lines;
  if (manual_fallback != nullptr) fallback_lines = flatten(*manual_fallback);
  const bool fallback_usable = fallback_lines.size() == lines.size();

  if (manual_fallback != nullptr && !fallback_usable) {
    auto manual = reference_parse_disengagement_report(*manual_fallback, nullptr);
    manual.manual_transcriptions = manual.events.size() + manual.mileage.size();
    return manual;
  }

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto& line = *lines[i];
    if (str::trim(line).empty() || reference_is_structural_line(line)) {
      ++result.skipped_lines;
      continue;
    }
    auto parsed = reader(line);
    if (!parsed && fallback_usable) {
      parsed = reader(*fallback_lines[i]);
      if (parsed) ++result.manual_transcriptions;
    }
    if (!parsed) {
      if (fallback_usable && reference_is_structural_line(*fallback_lines[i])) {
        ++result.skipped_lines;
      } else {
        ++result.failed_lines;
      }
      continue;
    }
    if (parsed->event) {
      auto d = std::move(*parsed->event);
      d.maker = result.maker;
      d.report_year = result.report_year;
      result.events.push_back(std::move(d));
    }
    if (parsed->mileage) {
      auto m = std::move(*parsed->mileage);
      m.maker = result.maker;
      m.report_year = result.report_year;
      result.mileage.push_back(std::move(m));
    }
  }

  if (fallback_usable) {
    std::vector<mileage_record> pristine_mileage;
    for (const auto* line : fallback_lines) {
      if (str::trim(*line).empty() || reference_is_structural_line(*line)) continue;
      const auto parsed = reader(*line);
      if (parsed && parsed->mileage) {
        auto m = *parsed->mileage;
        m.maker = result.maker;
        m.report_year = result.report_year;
        pristine_mileage.push_back(std::move(m));
      }
    }
    double noisy_total = 0;
    for (const auto& m : result.mileage) noisy_total += m.miles;
    double pristine_total = 0;
    for (const auto& m : pristine_mileage) pristine_total += m.miles;
    const bool row_mismatch = pristine_mileage.size() != result.mileage.size();
    const bool total_mismatch =
        pristine_total > 0 && std::fabs(noisy_total - pristine_total) > 0.001 * pristine_total;
    bool roster_mismatch = false;
    if (!row_mismatch) {
      std::set<std::string> noisy_roster;
      std::set<std::string> pristine_roster;
      for (const auto& m : result.mileage) noisy_roster.insert(m.vehicle_id);
      for (const auto& m : pristine_mileage) pristine_roster.insert(m.vehicle_id);
      roster_mismatch = noisy_roster != pristine_roster;
    }
    if (row_mismatch || total_mismatch || roster_mismatch) {
      result.manual_transcriptions += pristine_mileage.size();
      result.mileage = std::move(pristine_mileage);
    }

    std::set<std::string> roster;
    for (const auto& m : result.mileage) roster.insert(m.vehicle_id);
    for (auto& e : result.events) {
      if (e.vehicle_id.empty() || roster.contains(e.vehicle_id)) continue;
      std::string best;
      bool ambiguous = false;
      for (const auto& candidate : roster) {
        if (str::within_edit_distance(e.vehicle_id, candidate, 2)) {
          if (!best.empty()) ambiguous = true;
          best = candidate;
        }
      }
      if (!best.empty() && !ambiguous) e.vehicle_id = best;
    }
  }
  return result;
}

std::string replace_all(std::string_view s, std::string_view from, std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  out.reserve(s.size());
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      break;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
  return out;
}

}  // namespace avtk::parse::testing
