#include "parse/normalizer.h"

#include <algorithm>
#include <map>

#include "util/strings.h"

namespace avtk::parse {

normalization_stats normalize_disengagements(std::vector<dataset::disengagement_record>& records,
                                             const normalizer_config& config) {
  normalization_stats stats;
  auto out = records.begin();
  for (auto& r : records) {
    if (str::normalize_whitespace(r.description)) ++stats.descriptions_normalized;
    if (str::normalize_whitespace(r.vehicle_id)) ++stats.vehicle_ids_normalized;
    if (r.reaction_time_s && *r.reaction_time_s <= config.reaction_time_floor_s) {
      r.reaction_time_s.reset();
      ++stats.reaction_times_cleared;
    }
    if (r.description.empty()) {
      ++stats.records_dropped;
      continue;
    }
    if (&*out != &r) *out = std::move(r);
    ++out;
  }
  records.erase(out, records.end());
  return stats;
}

normalization_stats normalize_mileage(std::vector<dataset::mileage_record>& records) {
  normalization_stats stats;
  std::map<std::tuple<dataset::manufacturer, std::string, std::int64_t>,
           dataset::mileage_record>
      merged;
  for (auto& r : records) {
    if (!(r.miles > 0)) {
      ++stats.records_dropped;
      continue;
    }
    const auto key = std::make_tuple(r.maker, r.vehicle_id, r.month.index());
    const auto it = merged.find(key);
    if (it == merged.end()) {
      merged.emplace(key, std::move(r));
    } else {
      it->second.miles += r.miles;
    }
  }
  records.clear();
  records.reserve(merged.size());
  for (auto& [key, r] : merged) records.push_back(std::move(r));
  return stats;
}

normalization_stats normalize_accidents(std::vector<dataset::accident_record>& records) {
  normalization_stats stats;
  for (auto& r : records) {
    if (str::normalize_whitespace(r.description)) ++stats.descriptions_normalized;
    for (auto* speed : {&r.av_speed_mph, &r.other_speed_mph}) {
      if (*speed && (**speed < 0.0 || **speed > 120.0)) {
        speed->reset();
        ++stats.reaction_times_cleared;
      }
    }
  }
  return stats;
}

}  // namespace avtk::parse
