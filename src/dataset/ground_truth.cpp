#include "dataset/ground_truth.h"

#include <array>

#include "util/errors.h"

namespace avtk::dataset::ground_truth {

namespace {

using m = manufacturer;
constexpr auto nil_i = std::optional<int>{};
constexpr auto nil_d = std::optional<double>{};
constexpr auto nil_l = std::optional<long long>{};

// Table I verbatim. Dashes in the paper become nullopt here.
const std::array<fleet_row, 24> k_table1 = {{
    // 2015-2016 release (report_year 2016)
    {m::mercedes_benz, 2016, 2, 1739.08, 1024, nil_l},
    {m::bosch, 2016, 2, 935.1, 625, nil_l},
    {m::delphi, 2016, 2, 16661.0, 405, 1},
    {m::gm_cruise, 2016, nil_i, 285.4, 135, nil_l},
    {m::nissan, 2016, 4, 1485.4, 106, nil_l},
    {m::tesla, 2016, nil_i, nil_d, nil_l, nil_l},
    {m::volkswagen, 2016, 2, 14946.11, 260, nil_l},
    {m::waymo, 2016, 49, 424332.0, 341, 9},
    {m::uber_atc, 2016, nil_i, nil_d, nil_l, nil_l},
    {m::honda, 2016, nil_i, nil_d, nil_l, nil_l},
    {m::ford, 2016, nil_i, nil_d, nil_l, nil_l},
    {m::bmw, 2016, nil_i, nil_d, nil_l, nil_l},
    // 2016-2017 release (report_year 2017)
    {m::mercedes_benz, 2017, nil_i, 673.41, 336, nil_l},
    {m::bosch, 2017, 3, 983.0, 1442, nil_l},
    {m::delphi, 2017, 2, 3090.0, 167, nil_l},
    {m::gm_cruise, 2017, nil_i, 9729.8, 149, 14},
    {m::nissan, 2017, 3, 4099.0, 29, 1},
    {m::tesla, 2017, 5, 550.0, 182, nil_l},
    {m::volkswagen, 2017, nil_i, nil_d, nil_l, nil_l},
    {m::waymo, 2017, 70, 635868.0, 123, 16},
    {m::uber_atc, 2017, nil_i, nil_d, nil_l, 1},
    {m::honda, 2017, 0, 0.0, 0, nil_l},
    {m::ford, 2017, 2, 590.0, 3, nil_l},
    {m::bmw, 2017, nil_i, 638.0, 1, nil_l},
}};

// Table IV verbatim (percent -> fraction).
const std::array<category_mix, 5> k_table4 = {{
    {m::delphi, 0.3759, 0.5017, 0.1224, 0.0},
    {m::nissan, 0.363, 0.4963, 0.1407, 0.0},
    {m::tesla, 0.0, 0.0, 0.0165, 0.9835},
    {m::volkswagen, 0.0, 0.0308, 0.8308, 0.1385},
    {m::waymo, 0.1013, 0.5345, 0.3642, 0.0},
}};

// Generation mixes: Table IV where available; Benz / Bosch / GM Cruise are
// calibrated so the corpus-wide ML/Design share lands at the paper's 64%.
const std::array<category_mix, 8> k_generation_mix = {{
    {m::mercedes_benz, 0.24, 0.46, 0.30, 0.0},
    {m::bosch, 0.21, 0.44, 0.35, 0.0},
    {m::delphi, 0.3759, 0.5017, 0.1224, 0.0},
    {m::gm_cruise, 0.25, 0.45, 0.30, 0.0},
    {m::nissan, 0.363, 0.4963, 0.1407, 0.0},
    {m::tesla, 0.0, 0.0, 0.0165, 0.9835},
    {m::volkswagen, 0.0, 0.0308, 0.8307, 0.1385},
    {m::waymo, 0.1013, 0.5345, 0.3642, 0.0},
}};

// Table V verbatim (percent -> fraction; Waymo's published row sums to
// 99.99 due to rounding).
const std::array<modality_mix, 7> k_table5 = {{
    {m::mercedes_benz, 0.4711, 0.5289, 0.0},
    {m::bosch, 0.0, 0.0, 1.0},
    {m::gm_cruise, 0.0, 0.0, 1.0},
    {m::nissan, 0.542, 0.458, 0.0},
    {m::tesla, 0.9835, 0.0165, 0.0},
    {m::volkswagen, 1.0, 0.0, 0.0},
    {m::waymo, 0.5032, 0.4967, 0.0},
}};

const std::array<modality_mix, 8> k_generation_modality = {{
    {m::mercedes_benz, 0.4711, 0.5289, 0.0},
    {m::bosch, 0.0, 0.0, 1.0},
    {m::delphi, 0.50, 0.50, 0.0},  // absent from Table V
    {m::gm_cruise, 0.0, 0.0, 1.0},
    {m::nissan, 0.542, 0.458, 0.0},
    {m::tesla, 0.9835, 0.0165, 0.0},
    {m::volkswagen, 1.0, 0.0, 0.0},
    {m::waymo, 0.5032, 0.4968, 0.0},
}};

// Table VI verbatim.
const std::array<accident_row, 5> k_table6 = {{
    {m::waymo, 25, 0.5952, 18.0},
    {m::delphi, 1, 0.0238, 572.0},
    {m::nissan, 1, 0.0238, 135.0},
    {m::gm_cruise, 14, 0.3333, 20.0},
    {m::uber_atc, 1, 0.0238, std::nullopt},
}};

// Table VII verbatim.
const std::array<reliability_row, 8> k_table7 = {{
    {m::mercedes_benz, 0.565, std::nullopt, std::nullopt},
    {m::volkswagen, 0.0181, std::nullopt, std::nullopt},
    {m::waymo, 0.000745, 4.140e-5, 20.7},
    {m::delphi, 0.0263, 4.599e-5, 22.99},
    {m::nissan, 0.0413, 3.057e-4, 15.285},
    {m::bosch, 0.811, std::nullopt, std::nullopt},
    {m::gm_cruise, 0.177, 8.843e-3, 4421.5},
    {m::tesla, 0.250, std::nullopt, std::nullopt},
}};

// Table VIII verbatim.
const std::array<mission_row, 4> k_table8 = {{
    {m::waymo, 4.140e-4, 4.22, 0.0398},
    {m::delphi, 4.599e-4, 4.69, 0.0442},
    {m::nissan, 3.057e-3, 31.19, 0.293},
    {m::gm_cruise, 8.843e-2, 902.34, 8.502},
}};

constexpr year_month ym(int y, int mo) {
  return year_month{y, static_cast<std::uint8_t>(mo)};
}

// Generation plans. Reaction-time parameters give per-manufacturer means
// around the paper's 0.85 s with Benz long-tailed (Fig. 11a) and Waymo
// tight (Fig. 11b). DPM decay is steepest for Waymo (the paper reports an
// ~8x median-DPM improvement across the window).
const std::array<generation_plan, 17> k_plans = {{
    // maker, release, cars, first, last, decay, has_rt, shape, scale, power, road/weather, vague
    {m::mercedes_benz, 2016, 2, ym(2014, 9), ym(2015, 11), -0.18, true, 0.90, 0.45, 1.6, true, false},
    {m::mercedes_benz, 2017, 2, ym(2015, 12), ym(2016, 11), -0.18, true, 0.90, 0.45, 1.6, true, false},
    {m::bosch, 2016, 2, ym(2014, 10), ym(2015, 11), -0.05, false, 1.5, 0.8, 1.0, false, false},
    {m::bosch, 2017, 3, ym(2015, 12), ym(2016, 11), -0.05, false, 1.5, 0.8, 1.0, false, false},
    {m::delphi, 2016, 2, ym(2014, 10), ym(2015, 11), -0.22, true, 1.4, 0.70, 1.0, true, false},
    {m::delphi, 2017, 2, ym(2015, 12), ym(2016, 11), -0.22, true, 1.4, 0.70, 1.0, true, false},
    {m::gm_cruise, 2016, 2, ym(2015, 6), ym(2015, 11), -0.10, false, 1.5, 0.8, 1.0, false, false,
     0.30, 0.35},
    {m::gm_cruise, 2017, 12, ym(2015, 12), ym(2016, 11), -0.10, false, 1.5, 0.8, 1.0, false,
     false, 0.10, 2.00},
    {m::nissan, 2016, 4, ym(2014, 11), ym(2015, 11), -0.25, true, 1.5, 0.82, 1.0, true, false,
     0.60, 0.60},
    {m::nissan, 2017, 3, ym(2015, 12), ym(2016, 11), -0.25, true, 1.5, 0.82, 1.0, true, false,
     0.60, 0.60},
    {m::tesla, 2017, 5, ym(2016, 10), ym(2016, 11), -0.05, true, 1.8, 0.53, 1.0, false, true},
    {m::volkswagen, 2016, 2, ym(2014, 9), ym(2015, 11), -0.15, true, 1.3, 0.74, 1.0, false, false},
    {m::waymo, 2016, 49, ym(2014, 9), ym(2015, 11), -0.45, true, 1.6, 0.70, 1.0, true, false},
    {m::waymo, 2017, 70, ym(2015, 12), ym(2016, 11), -0.45, true, 1.6, 0.70, 1.0, true, false},
    {m::ford, 2017, 2, ym(2016, 8), ym(2016, 11), 0.0, false, 1.5, 0.8, 1.0, false, false},
    {m::bmw, 2017, 1, ym(2016, 3), ym(2016, 4), 0.0, false, 1.5, 0.8, 1.0, false, false},
    {m::honda, 2017, 0, ym(2016, 1), ym(2016, 1), 0.0, false, 1.5, 0.8, 1.0, false, false},
}};

}  // namespace

std::span<const fleet_row> table1() { return k_table1; }

const fleet_row* table1_row_or_null(manufacturer maker, int report_year) {
  for (const auto& row : k_table1) {
    if (row.maker == maker && row.report_year == report_year) return &row;
  }
  return nullptr;
}

const fleet_row& table1_row(manufacturer maker, int report_year) {
  if (const auto* row = table1_row_or_null(maker, report_year)) return *row;
  throw not_found_error("Table I row for " + std::string(manufacturer_name(maker)) + "/" +
                        std::to_string(report_year));
}

std::span<const category_mix> table4() { return k_table4; }
const category_mix& generation_mix_for(manufacturer maker) {
  for (const auto& mix : k_generation_mix) {
    if (mix.maker == maker) return mix;
  }
  // Late entrants with a handful of events (Ford, BMW) get a generic mix.
  static const category_mix k_default = {manufacturer::ford, 0.25, 0.45, 0.30, 0.0};
  return k_default;
}

std::span<const modality_mix> table5() { return k_table5; }

const modality_mix& generation_modality_for(manufacturer maker) {
  for (const auto& mix : k_generation_modality) {
    if (mix.maker == maker) return mix;
  }
  static const modality_mix k_default = {manufacturer::ford, 0.5, 0.5, 0.0};
  return k_default;
}

std::span<const accident_row> table6() { return k_table6; }
std::span<const reliability_row> table7() { return k_table7; }
std::span<const mission_row> table8() { return k_table8; }

report_period period_for_release(int report_year) {
  if (report_year == 2016) return {2016, ym(2014, 9), ym(2015, 11)};
  if (report_year == 2017) return {2017, ym(2015, 12), ym(2016, 11)};
  throw not_found_error("report period for release " + std::to_string(report_year));
}

std::span<const generation_plan> generation_plans() { return k_plans; }

const generation_plan& plan_for(manufacturer maker, int report_year) {
  for (const auto& p : k_plans) {
    if (p.maker == maker && p.report_year == report_year) return p;
  }
  throw not_found_error("generation plan for " + std::string(manufacturer_name(maker)) + "/" +
                        std::to_string(report_year));
}

bool has_plan_for(manufacturer maker, int report_year) {
  for (const auto& p : k_plans) {
    if (p.maker == maker && p.report_year == report_year) return true;
  }
  return false;
}

}  // namespace avtk::dataset::ground_truth
