#include "obs/metrics.h"

namespace avtk::obs {

std::uint64_t metrics_snapshot::counter_value(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

std::uint64_t metrics_snapshot::counter_delta(const metrics_snapshot& earlier,
                                              std::string_view name) const {
  const auto now = counter_value(name);
  const auto before = earlier.counter_value(name);
  return now >= before ? now - before : 0;
}

counter& metric_registry::get_counter(std::string_view name) {
  {
    std::shared_lock lock(mutex_);
    const auto it = counters_.find(name);
    if (it != counters_.end()) return *it->second;
  }
  std::unique_lock lock(mutex_);
  auto& slot = counters_[std::string(name)];
  if (!slot) slot = std::make_unique<counter>();
  return *slot;
}

void metric_registry::set_gauge(std::string_view name, double value) {
  std::unique_lock lock(mutex_);
  gauges_[std::string(name)] = value;
}

void metric_registry::add_gauge(std::string_view name, double delta) {
  std::unique_lock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_[std::string(name)] = delta;
  } else {
    it->second += delta;
  }
}

metrics_snapshot metric_registry::snapshot() const {
  metrics_snapshot out;
  std::shared_lock lock(mutex_);
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.counters.emplace_back(name, c->value());
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, v] : gauges_) out.gauges.emplace_back(name, v);
  return out;  // std::map iteration is already name-sorted
}

metric_registry& metrics() {
  static metric_registry registry;
  return registry;
}

}  // namespace avtk::obs
