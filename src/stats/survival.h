// avtk/stats/survival.h
//
// Survival analysis for the paper's §V-C2 proposal: since operational hours
// to failure are unavailable for AVs, use *miles to disengagement* as the
// reliability metric. Kaplan-Meier handles the censoring this creates
// (vehicles that finished the reporting period without an event).
#pragma once

#include <optional>
#include <span>
#include <vector>

namespace avtk::stats {

/// One subject: exposure accumulated until the event, or until censoring.
struct survival_observation {
  double time = 0.0;     ///< miles (or any exposure unit), > 0
  bool event = true;     ///< true: failure observed; false: right-censored
};

/// One step of the Kaplan-Meier curve.
struct km_point {
  double time = 0.0;       ///< event time
  double survival = 1.0;   ///< S(t) just after this time
  std::size_t at_risk = 0; ///< subjects at risk just before this time
  std::size_t events = 0;  ///< events at exactly this time
};

/// The fitted estimator.
class kaplan_meier {
 public:
  /// Fits from observations; throws avtk::logic_error when empty or any
  /// time <= 0.
  explicit kaplan_meier(std::vector<survival_observation> observations);

  const std::vector<km_point>& curve() const { return curve_; }

  /// Median survival time: smallest event time with S(t) <= 0.5; nullopt
  /// when the curve never reaches 0.5 (heavy censoring).
  std::optional<double> median_survival() const;

  /// Restricted mean survival time up to `horizon` (area under S(t)).
  double restricted_mean(double horizon) const;

  std::size_t subjects() const { return n_; }
  std::size_t observed_events() const { return events_; }

 private:
  std::vector<km_point> curve_;
  std::size_t n_ = 0;
  std::size_t events_ = 0;
};

/// Exponential MTBF estimate under censoring: total exposure / events
/// (the MLE for the exponential model). Returns nullopt when no events.
std::optional<double> censored_exponential_mtbf(std::span<const survival_observation> obs);

}  // namespace avtk::stats
