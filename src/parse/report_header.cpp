#include "parse/report_header.h"

#include "util/strings.h"

namespace avtk::parse {

using dataset::manufacturer;

std::optional<manufacturer> fuzzy_manufacturer(std::string_view text) {
  const auto exact = dataset::manufacturer_from_string(text);
  if (exact) return exact;
  const std::string lower = str::to_lower(str::trim(text));
  if (lower.size() < 2) return std::nullopt;
  std::optional<manufacturer> found;
  for (const auto m : dataset::k_all_manufacturers) {
    for (const auto name : {dataset::manufacturer_name(m), dataset::manufacturer_short_name(m)}) {
      const std::string candidate = str::to_lower(name);
      const std::size_t limit = candidate.size() >= 6 ? 2 : 1;
      if (str::within_edit_distance(lower, candidate, limit)) {
        if (found && *found != m) return std::nullopt;  // ambiguous
        found = m;
      }
    }
  }
  return found;
}

report_identity identify_report(const ocr::document& doc) {
  report_identity id;
  std::size_t scanned = 0;
  for (const auto& page : doc.pages) {
    for (const auto& line : page.lines) {
      if (scanned++ > 8) break;
      const auto lower = str::to_lower(line);
      if (str::icontains(lower, "disengagement report")) {
        id.kind = report_kind::disengagement;
        // "<Maker> Autonomous Vehicle Disengagement Report"
        const auto pos = lower.find("autonomous vehicle");
        if (pos != std::string::npos && !id.maker) {
          id.maker = fuzzy_manufacturer(str::trim(std::string_view(line).substr(0, pos)));
        }
      }
      if (str::icontains(lower, "traffic collision") || str::icontains(lower, "ol 316") ||
          str::icontains(lower, "ol-316")) {
        id.kind = report_kind::accident;
      }
      if (str::starts_with(lower, "manufacturer:")) {
        id.maker = fuzzy_manufacturer(str::trim(std::string_view(line).substr(13)));
      }
      if (str::icontains(lower, "dmv release:")) {
        const auto pos = lower.find("dmv release:");
        const auto year = str::parse_int(str::trim(std::string_view(line).substr(pos + 12)));
        if (year && *year >= 2015 && *year <= 2018) id.report_year = static_cast<int>(*year);
      }
    }
  }
  return id;
}

}  // namespace avtk::parse
