#include "parse/normalizer.h"

#include <algorithm>
#include <iterator>
#include <tuple>

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
  stats.records_dropped = std::erase_if(records, [](const auto& r) { return !(r.miles > 0); });
  // Sort by (maker, vehicle id, month), keeping corpus order among equal
  // keys, then fold each run of equal keys into its first record: the
  // duplicates' miles are added in corpus order.
  const auto key = [](const dataset::mileage_record& r) {
    return std::tuple<dataset::manufacturer, const std::string&, std::int64_t>(
        r.maker, r.vehicle_id, r.month.index());
  };
  std::ranges::stable_sort(records, [&](const auto& a, const auto& b) { return key(a) < key(b); });
  auto out = records.begin();
  for (auto it = records.begin(); it != records.end(); ++it) {
    if (out != records.begin() && key(*std::prev(out)) == key(*it)) {
      std::prev(out)->miles += it->miles;
    } else {
      if (out != it) *out = std::move(*it);
      ++out;
    }
  }
  records.erase(out, records.end());
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
