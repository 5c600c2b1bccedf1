#include "stats/survival.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/errors.h"

namespace avtk::stats {

kaplan_meier::kaplan_meier(std::vector<survival_observation> observations) {
  if (observations.empty()) throw logic_error("kaplan_meier requires observations");
  for (const auto& o : observations) {
    if (!(o.time > 0)) throw logic_error("kaplan_meier requires positive times");
  }
  n_ = observations.size();
  std::sort(observations.begin(), observations.end(),
            [](const survival_observation& a, const survival_observation& b) {
              return a.time < b.time;
            });

  // Group events by time; censorings only shrink the risk set.
  std::map<double, std::size_t> event_counts;
  for (const auto& o : observations) {
    if (o.event) {
      ++event_counts[o.time];
      ++events_;
    }
  }

  double survival = 1.0;
  std::size_t removed_before = 0;  // subjects with time < t (events or censored)
  std::size_t idx = 0;
  for (const auto& [t, d] : event_counts) {
    while (idx < observations.size() && observations[idx].time < t) {
      ++removed_before;
      ++idx;
    }
    const std::size_t at_risk = n_ - removed_before;
    if (at_risk == 0) break;
    survival *= 1.0 - static_cast<double>(d) / static_cast<double>(at_risk);
    curve_.push_back(km_point{t, survival, at_risk, d});
  }
}

std::optional<double> kaplan_meier::median_survival() const {
  for (const auto& p : curve_) {
    if (p.survival <= 0.5) return p.time;
  }
  return std::nullopt;
}

double kaplan_meier::restricted_mean(double horizon) const {
  if (!(horizon > 0)) throw logic_error("restricted_mean requires horizon > 0");
  double area = 0;
  double prev_time = 0;
  double prev_survival = 1.0;
  for (const auto& p : curve_) {
    if (p.time >= horizon) break;
    area += prev_survival * (p.time - prev_time);
    prev_time = p.time;
    prev_survival = p.survival;
  }
  area += prev_survival * (horizon - prev_time);
  return area;
}

std::optional<double> censored_exponential_mtbf(std::span<const survival_observation> obs) {
  double exposure = 0;
  std::size_t events = 0;
  for (const auto& o : obs) {
    if (!(o.time > 0)) throw logic_error("censored_exponential_mtbf requires positive times");
    exposure += o.time;
    if (o.event) ++events;
  }
  if (events == 0) return std::nullopt;
  return exposure / static_cast<double>(events);
}

}  // namespace avtk::stats
