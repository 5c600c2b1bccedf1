#include "core/metrics.h"

#include <gtest/gtest.h>

#include "dataset/ground_truth.h"

namespace avtk::core {
namespace {

using dataset::manufacturer;
namespace gt = dataset::ground_truth;

dataset::failure_database tiny_db() {
  dataset::failure_database db;
  // Two cars, clean attribution, 2 accidents.
  for (const auto& [vid, miles] : std::vector<std::pair<std::string, double>>{
           {"A", 100.0}, {"B", 300.0}}) {
    dataset::mileage_record m;
    m.maker = manufacturer::nissan;
    m.vehicle_id = vid;
    m.month = year_month{2016, 1};
    m.miles = miles;
    db.add_mileage(m);
  }
  for (int i = 0; i < 8; ++i) {
    dataset::disengagement_record d;
    d.maker = manufacturer::nissan;
    d.vehicle_id = i < 4 ? "A" : "B";
    d.event_date = date::make(2016, 1, 1 + i);
    d.description = "x";
    db.add_disengagement(d);
  }
  for (int i = 0; i < 2; ++i) {
    dataset::accident_record a;
    a.maker = manufacturer::nissan;
    db.add_accident(a);
  }
  return db;
}

TEST(Metrics, PerCarDpm) {
  const auto db = tiny_db();
  auto dpms = per_car_dpm(db, manufacturer::nissan);
  ASSERT_EQ(dpms.size(), 2u);
  std::sort(dpms.begin(), dpms.end());
  EXPECT_NEAR(dpms[0], 4.0 / 300.0, 1e-12);
  EXPECT_NEAR(dpms[1], 4.0 / 100.0, 1e-12);
}

TEST(Metrics, ComputeMetricsChains) {
  const auto m = compute_metrics(tiny_db(), manufacturer::nissan);
  EXPECT_DOUBLE_EQ(m.total_miles, 400.0);
  EXPECT_EQ(m.total_disengagements, 8);
  EXPECT_EQ(m.total_accidents, 2);
  EXPECT_NEAR(m.overall_dpm, 0.02, 1e-12);
  ASSERT_TRUE(m.median_dpm);
  EXPECT_NEAR(*m.median_dpm, (4.0 / 300.0 + 4.0 / 100.0) / 2.0, 1e-12);
  ASSERT_TRUE(m.dpa);
  EXPECT_DOUBLE_EQ(*m.dpa, 4.0);
  ASSERT_TRUE(m.apm);
  EXPECT_NEAR(*m.apm, *m.median_dpm / 4.0, 1e-15);
  ASSERT_TRUE(m.apmi);
  EXPECT_NEAR(*m.apmi, *m.apm * gt::k_median_trip_miles, 1e-15);
  EXPECT_NEAR(*m.vs_human, *m.apm / gt::k_human_apm, 1e-9);
  EXPECT_NEAR(*m.vs_airline, *m.apmi / gt::k_airline_apm, 1e-9);
  EXPECT_NEAR(*m.vs_surgical_robot, *m.apmi / gt::k_surgical_robot_apm, 1e-9);
}

TEST(Metrics, NoAccidentsMeansNoApm) {
  dataset::failure_database db;
  dataset::mileage_record m;
  m.maker = manufacturer::tesla;
  m.vehicle_id = "T";
  m.month = year_month{2016, 10};
  m.miles = 100;
  db.add_mileage(m);
  dataset::disengagement_record d;
  d.maker = manufacturer::tesla;
  d.vehicle_id = "T";
  d.event_date = date::make(2016, 10, 5);
  d.description = "x";
  db.add_disengagement(d);

  const auto metrics = compute_metrics(db, manufacturer::tesla);
  EXPECT_TRUE(metrics.median_dpm);
  EXPECT_FALSE(metrics.dpa);
  EXPECT_FALSE(metrics.apm);
  EXPECT_FALSE(metrics.vs_human);
}

TEST(Metrics, EmptyManufacturer) {
  dataset::failure_database db;
  const auto m = compute_metrics(db, manufacturer::honda);
  EXPECT_DOUBLE_EQ(m.total_miles, 0);
  EXPECT_FALSE(m.median_dpm);
}

TEST(Metrics, PerCarDpmInYearFiltersMonths) {
  dataset::failure_database db;
  for (const int year : {2015, 2016}) {
    dataset::mileage_record m;
    m.maker = manufacturer::delphi;
    m.vehicle_id = "D";
    m.month = year_month{year, 6};
    m.miles = 100;
    db.add_mileage(m);
  }
  dataset::disengagement_record d;
  d.maker = manufacturer::delphi;
  d.vehicle_id = "D";
  d.event_date = date::make(2015, 6, 1);
  d.description = "x";
  db.add_disengagement(d);

  const auto in_2015 = per_car_dpm(db, manufacturer::delphi, 2015);
  const auto in_2016 = per_car_dpm(db, manufacturer::delphi, 2016);
  ASSERT_EQ(in_2015.size(), 1u);
  EXPECT_NEAR(in_2015[0], 0.01, 1e-12);
  ASSERT_EQ(in_2016.size(), 1u);
  EXPECT_DOUBLE_EQ(in_2016[0], 0.0);
}

TEST(Metrics, AggregatesMatchHandComputation) {
  const auto agg = compute_aggregates(tiny_db());
  EXPECT_DOUBLE_EQ(agg.total_miles, 400);
  EXPECT_EQ(agg.total_disengagements, 8);
  EXPECT_EQ(agg.total_accidents, 2);
  EXPECT_DOUBLE_EQ(agg.miles_per_disengagement, 50);
  EXPECT_DOUBLE_EQ(agg.disengagements_per_accident, 4);
}

TEST(Metrics, ComputeAllCoversPresentManufacturers) {
  const auto all = compute_all_metrics(tiny_db());
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].maker, manufacturer::nissan);
}

}  // namespace
}  // namespace avtk::core
