#include "parse/accident_parser.h"

#include "parse/report_header.h"
#include "util/errors.h"
#include "util/strings.h"

namespace avtk::parse {

namespace {

// Known OL-316 labels; incoming keys are snapped to these with edit-
// distance tolerance so scan noise in a label does not silently drop the
// field's value.
std::string canonical_key(std::string_view raw) {
  static const char* known[] = {
      "date of accident", "vehicle",          "location",
      "av speed (mph)",   "other vehicle speed (mph)", "autonomous mode",
      "collision type",   "near intersection", "injuries",
      "description",      "dmv release",      "manufacturer",
  };
  const std::string key = str::to_lower(str::trim(raw));
  for (const char* k : known) {
    if (key == k) return key;
  }
  std::string best;
  for (const char* k : known) {
    if (str::within_edit_distance(key, k, 2)) {
      if (!best.empty()) return key;  // ambiguous: keep the raw key
      best = k;
    }
  }
  return best.empty() ? key : best;
}

// Canonical-label -> handler dispatch. Returns true when the value was
// consumed successfully.
bool apply_field(dataset::accident_record& rec, std::string_view key, std::string_view value) {
  const auto v = str::trim(value);
  if (key == "date of accident") {
    const auto d = dates::parse_date(v);
    if (!d) return false;
    rec.event_date = *d;
    return true;
  }
  if (key == "vehicle") {
    if (str::icontains(v, "redacted")) {
      rec.vehicle_id.clear();
    } else {
      rec.vehicle_id = std::string(v);
    }
    return true;
  }
  if (key == "location") {
    rec.location = std::string(v);
    rec.near_intersection = str::icontains(v, "intersection");
    return true;
  }
  if (key == "av speed (mph)") {
    if (str::iequals(v, "unknown")) return true;
    const auto s = str::parse_double(v);
    if (!s || *s < 0) return false;
    rec.av_speed_mph = *s;
    return true;
  }
  if (key == "other vehicle speed (mph)") {
    if (str::iequals(v, "unknown")) return true;
    const auto s = str::parse_double(v);
    if (!s || *s < 0) return false;
    rec.other_speed_mph = *s;
    return true;
  }
  if (key == "autonomous mode") {
    rec.av_in_autonomous_mode = str::iequals(v, "Yes");
    return true;
  }
  if (key == "collision type") {
    rec.rear_end = str::icontains(v, "rear");
    return true;
  }
  if (key == "near intersection") {
    if (str::iequals(v, "Yes")) rec.near_intersection = true;
    return true;
  }
  if (key == "injuries") {
    rec.injuries = str::iequals(v, "Yes");
    return true;
  }
  if (key == "description") {
    rec.description = std::string(v);
    return true;
  }
  if (key == "dmv release") {
    const auto y = str::parse_int(v);
    if (!y || *y < 2015 || *y > 2018) return false;
    rec.report_year = static_cast<int>(*y);
    return true;
  }
  return true;  // unknown labels tolerated
}

// Splits "Label: value"; labels never contain ':'.
std::optional<std::pair<std::string, std::string>> split_label(std::string_view line) {
  const auto colon = line.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  return std::make_pair(canonical_key(line.substr(0, colon)),
                        std::string(str::trim(line.substr(colon + 1))));
}

}  // namespace

accident_parse_result parse_accident_report(const ocr::document& doc,
                                            const ocr::document* manual_fallback) {
  auto id = identify_report(doc);
  if ((id.kind != report_kind::accident || !id.maker) && manual_fallback != nullptr) {
    id = identify_report(*manual_fallback);
  }
  if (id.kind != report_kind::accident) {
    throw header_error("document is not an accident report: " + doc.title);
  }
  if (!id.maker) {
    throw header_error("cannot identify manufacturer of accident report: " + doc.title);
  }

  accident_parse_result out;
  out.record.maker = *id.maker;
  if (id.report_year) out.record.report_year = *id.report_year;

  std::vector<const std::string*> lines;
  for (const auto& p : doc.pages) {
    for (const auto& l : p.lines) lines.push_back(&l);
  }
  std::vector<const std::string*> fallback_lines;
  if (manual_fallback != nullptr) {
    for (const auto& p : manual_fallback->pages) {
      for (const auto& l : p.lines) fallback_lines.push_back(&l);
    }
  }
  const bool fallback_usable = fallback_lines.size() == lines.size();

  if (manual_fallback != nullptr && !fallback_usable) {
    // Merged lines: transcribe the whole report manually.
    auto manual = parse_accident_report(*manual_fallback, nullptr);
    manual.used_manual_fallback = true;
    return manual;
  }

  for (std::size_t i = 0; i < lines.size(); ++i) {
    auto kv = split_label(*lines[i]);
    bool ok = kv && apply_field(out.record, kv->first, kv->second);
    if (!ok && fallback_usable) {
      kv = split_label(*fallback_lines[i]);
      if (kv && apply_field(out.record, kv->first, kv->second)) {
        ok = true;
        out.used_manual_fallback = true;
      }
    }
    if (!ok && kv) ++out.unparsed_fields;
  }
  return out;
}

}  // namespace avtk::parse
