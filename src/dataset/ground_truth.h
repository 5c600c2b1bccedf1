// avtk/dataset/ground_truth.h
//
// Every number the paper publishes, as machine-readable constants. Two
// uses: (1) the corpus generator is calibrated against these marginals, and
// (2) the bench harnesses print paper-vs-measured rows from them.
//
// Report periods: the DMV "2016" release covers Sep 2014 - Nov 2015; the
// "2017" release covers Dec 2015 - Nov 2016 (26 months total).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "dataset/manufacturers.h"
#include "util/dates.h"

namespace avtk::dataset::ground_truth {

// ---------------------------------------------------------------- Table I

/// One Table I cell group: a manufacturer's row for one DMV release.
struct fleet_row {
  manufacturer maker;
  int report_year;  ///< 2016 or 2017
  std::optional<int> cars;
  std::optional<double> miles;
  std::optional<long long> disengagements;
  std::optional<long long> accidents;
};

/// All 24 rows of Table I (12 manufacturers x 2 releases). Kept although
/// only tests read it whole: it is the paper's Table I the generator tests
/// check the corpus against.
std::span<const fleet_row> table1();

/// The row for (maker, report_year); throws avtk::not_found_error.
const fleet_row& table1_row(manufacturer maker, int report_year);

/// As above, but nullptr when the (maker, release) pair is not in Table I.
const fleet_row* table1_row_or_null(manufacturer maker, int report_year);

/// Headline totals.
inline constexpr long long k_total_disengagements = 5328;
inline constexpr long long k_analyzed_disengagements = 5324;  ///< 8 analyzed manufacturers
inline constexpr long long k_total_accidents = 42;
inline constexpr double k_total_miles = 1116605.0;
inline constexpr int k_total_cars = 144;
/// Total miles / total disengagements. The paper's prose quotes "an
/// average of 262 autonomous miles driven per disengagement" via a per-car/
/// per-manufacturer aggregation it does not fully specify; its own Table I
/// totals give 1,116,605 / 5,328 = 209.6, which is the reproducible
/// definition used here. The quoted figure is kept for the record.
inline constexpr double k_miles_per_disengagement = 209.6;
inline constexpr double k_paper_quoted_miles_per_disengagement = 262.0;
inline constexpr double k_disengagements_per_accident = 127.0;

// --------------------------------------------------------------- Table IV

/// Root-cause category mix (fractions, not percents).
struct category_mix {
  manufacturer maker;
  double planner_controller = 0;       ///< ML/Design: planning & control
  double perception_recognition = 0;   ///< ML/Design: perception
  double system = 0;
  double unknown = 0;
};

/// The five manufacturers Table IV reports.
std::span<const category_mix> table4();

/// Generation mix of one manufacturer: Table IV values where published,
/// calibrated plausible values for Benz / Bosch / GM Cruise (chosen so the
/// corpus-wide ML share lands at the paper's 64%).
const category_mix& generation_mix_for(manufacturer maker);

/// Paper-level aggregates (§V-A2).
inline constexpr double k_ml_fraction = 0.64;
inline constexpr double k_perception_fraction = 0.44;
inline constexpr double k_planner_fraction = 0.20;
inline constexpr double k_system_fraction = 0.336;

// ---------------------------------------------------------------- Table V

/// Modality mix (fractions).
struct modality_mix {
  manufacturer maker;
  double automatic = 0;
  double manual = 0;
  double planned = 0;
};

/// The seven manufacturers Table V reports.
std::span<const modality_mix> table5();

/// Generation modality mix of one manufacturer (Delphi, absent from
/// Table V, generates 50/50 automatic/manual).
const modality_mix& generation_modality_for(manufacturer maker);

// --------------------------------------------------------------- Table VI

struct accident_row {
  manufacturer maker;
  long long accidents = 0;
  double fraction_of_total = 0;            ///< percent / 100
  std::optional<double> dpa;               ///< disengagements per accident
};

std::span<const accident_row> table6();

// -------------------------------------------------------------- Table VII

struct reliability_row {
  manufacturer maker;
  double median_dpm = 0;                    ///< per mile
  std::optional<double> median_apm;         ///< per mile
  std::optional<double> relative_to_human;  ///< APM / human APM
};

std::span<const reliability_row> table7();

inline constexpr double k_human_apm = 2e-6;  ///< NHTSA/FHWA: 1 per 500k miles

// ------------------------------------------------------------- Table VIII

struct mission_row {
  manufacturer maker;
  double apmi = 0;                ///< accidents per mission
  double vs_airline = 0;          ///< APMi / airline APM
  double vs_surgical_robot = 0;   ///< APMi / surgical-robot APM
};

std::span<const mission_row> table8();

inline constexpr double k_airline_apm = 9.8e-5;        ///< NTSB per departure
inline constexpr double k_surgical_robot_apm = 1.04e-2;///< FDA MAUDE per procedure
inline constexpr double k_median_trip_miles = 10.0;    ///< FHWA household survey

// ------------------------------------------------ Figures 8 / 10 / 11 / 12

inline constexpr double k_fig8_pearson_r = -0.87;
inline constexpr double k_mean_reaction_time_s = 0.85;   ///< §V-A4
inline constexpr double k_nonav_brake_reaction_s = 0.82; ///< Fambro et al.
inline constexpr double k_nonav_owner_reaction_s = 1.09; ///< 0.82 + 0.27
inline constexpr double k_fig12_low_speed_fraction = 0.80;  ///< accidents with rel. speed < 10 mph
inline constexpr double k_fig12_low_speed_mph = 10.0;

/// Reaction-time correlations with cumulative miles (§V-A4).
inline constexpr double k_waymo_reaction_corr = 0.19;
inline constexpr double k_benz_reaction_corr = 0.11;

// -------------------------------------------------- Generation calibration

/// Reporting period for each DMV release.
struct report_period {
  int report_year;
  year_month first;
  year_month last;
};
report_period period_for_release(int report_year);

/// Per-(manufacturer, release) generation plan beyond Table I: fleet size
/// to simulate when the report omits it, active month span, DPM-decay
/// exponent (how fast DPM falls with cumulative miles; drives Figs. 5/8/9),
/// and the reaction-time distribution (exponentiated-Weibull parameters).
struct generation_plan {
  manufacturer maker;
  int report_year;
  int cars = 0;                 ///< simulated fleet size
  year_month first_month;
  year_month last_month;
  double dpm_decay = 0.0;       ///< beta in weight ~ miles^alpha * cum^beta (beta <= 0)
  bool reports_reaction_time = false;
  double rt_shape = 1.5;        ///< exponentiated-Weibull shape
  double rt_scale = 0.8;        ///< scale (seconds)
  double rt_power = 1.0;        ///< exponentiation power
  bool reports_road_weather = false;
  bool vague_descriptions = false;  ///< Tesla-style uninformative causes
  /// alpha in the event weight miles^alpha * cum^beta: 1.0 spreads events
  /// proportionally to miles; < 1 concentrates DPM on low-mileage cars
  /// (GM Cruise's per-car DPM spread in Fig. 4 needs this).
  double event_miles_exponent = 1.0;
  /// Lognormal sigma of per-car mileage share: 0.35 keeps fleets fairly
  /// even; large values create workhorse-plus-stragglers fleets.
  double mileage_sigma = 0.35;
};

/// Every per-(maker, release) plan. Kept although only tests read it
/// whole: the ground-truth tests check each plan against its release period.
std::span<const generation_plan> generation_plans();
const generation_plan& plan_for(manufacturer maker, int report_year);
bool has_plan_for(manufacturer maker, int report_year);

}  // namespace avtk::dataset::ground_truth
