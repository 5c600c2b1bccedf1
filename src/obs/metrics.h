// avtk/obs/metrics.h
//
// A thread-safe counter/gauge registry. Counters are monotonically
// increasing atomics handed out by reference (the registry guarantees
// pointer stability), so hot paths pay one relaxed fetch_add per event and
// no lock after the first lookup. Gauges are last-write-wins doubles.
//
// The process-wide registry (`metrics()`) is what the instrumented layers
// (OCR engine, classifier, fleet sim, pipeline) write to; tests and the CLI
// snapshot it.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace avtk::obs {

/// Monotonic event counter. add() is safe from any thread.
class counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A point-in-time copy of every metric, sorted by name (deterministic
/// export order regardless of registration order).
struct metrics_snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;

  /// Counter value by name; 0 when absent.
  std::uint64_t counter_value(std::string_view name) const;
  /// Counter increase since `earlier`: counter_value(name) minus the
  /// earlier snapshot's value (0 when the earlier value is the larger).
  /// This is how a harness attributes deltas of the process-wide registry
  /// to one bounded phase.
  std::uint64_t counter_delta(const metrics_snapshot& earlier, std::string_view name) const;
};

class metric_registry {
 public:
  metric_registry() = default;
  metric_registry(const metric_registry&) = delete;
  metric_registry& operator=(const metric_registry&) = delete;

  /// Returns the counter registered under `name`, creating it on first use.
  /// The reference stays valid for the registry's lifetime.
  counter& get_counter(std::string_view name);

  /// Sets (or creates) a gauge. Last write wins.
  void set_gauge(std::string_view name, double value);

  /// Adds to a gauge (read-modify-write under the registry lock).
  void add_gauge(std::string_view name, double delta);

  metrics_snapshot snapshot() const;

 private:
  mutable std::shared_mutex mutex_;
  // node-based map: element addresses are stable across inserts.
  std::map<std::string, std::unique_ptr<counter>, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
};

/// The process-wide registry used by the instrumented pipeline layers.
metric_registry& metrics();

}  // namespace avtk::obs
