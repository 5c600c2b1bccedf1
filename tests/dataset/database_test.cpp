#include "dataset/database.h"

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "dataset/view.h"

namespace avtk::dataset {
namespace {

mileage_record make_mileage(manufacturer maker, const std::string& vid, year_month ym,
                            double miles) {
  mileage_record m;
  m.maker = maker;
  m.vehicle_id = vid;
  m.month = ym;
  m.miles = miles;
  return m;
}

disengagement_record make_event(manufacturer maker, const std::string& vid,
                                std::optional<date> when) {
  disengagement_record d;
  d.maker = maker;
  d.vehicle_id = vid;
  d.event_date = when;
  d.description = "x";
  return d;
}

TEST(Database, TotalsByManufacturer) {
  failure_database db;
  db.add_mileage(make_mileage(manufacturer::waymo, "A", {2016, 1}, 100));
  db.add_mileage(make_mileage(manufacturer::nissan, "B", {2016, 1}, 50));
  db.add_disengagement(make_event(manufacturer::waymo, "A", date::make(2016, 1, 5)));
  EXPECT_DOUBLE_EQ(database_view(db).total_miles(), 150);
  EXPECT_DOUBLE_EQ(database_view(db).total_miles(manufacturer::waymo), 100);
  EXPECT_EQ(database_view(db).total_disengagements(manufacturer::waymo), 1);
  EXPECT_EQ(database_view(db).total_disengagements(manufacturer::nissan), 0);
  EXPECT_EQ(database_view(db).manufacturers_present().size(), 2u);
}

TEST(Database, DirectAttributionByVehicleAndMonth) {
  failure_database db;
  db.add_mileage(make_mileage(manufacturer::nissan, "A", {2016, 1}, 100));
  db.add_mileage(make_mileage(manufacturer::nissan, "A", {2016, 2}, 100));
  db.add_disengagement(make_event(manufacturer::nissan, "A", date::make(2016, 2, 10)));
  const auto vms = database_view(db).vehicle_months();
  ASSERT_EQ(vms.size(), 2u);
  for (const auto& vm : vms) {
    if (vm.month == (year_month{2016, 2})) {
      EXPECT_EQ(vm.disengagements, 1);
    } else {
      EXPECT_EQ(vm.disengagements, 0);
    }
  }
}

TEST(Database, MonthOnlyEventsSplitEquallyWithinMonth) {
  failure_database db;
  // Two vehicles active in Jan; one event with month but no vehicle.
  db.add_mileage(make_mileage(manufacturer::waymo, "A", {2016, 1}, 300));
  db.add_mileage(make_mileage(manufacturer::waymo, "B", {2016, 1}, 100));
  for (int i = 0; i < 4; ++i) {
    disengagement_record d;
    d.maker = manufacturer::waymo;
    d.event_month = year_month{2016, 1};
    d.description = "x";
    db.add_disengagement(d);
  }
  long long a = 0;
  long long b = 0;
  for (const auto& vm : database_view(db).vehicle_months()) {
    if (vm.vehicle_id == "A") a = vm.disengagements;
    if (vm.vehicle_id == "B") b = vm.disengagements;
  }
  // Equal share, not miles-proportional: 2 and 2.
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 2);
}

TEST(Database, UnmatchableVehicleFallsBackToMonthPool) {
  failure_database db;
  db.add_mileage(make_mileage(manufacturer::nissan, "A", {2016, 1}, 100));
  // Event names a vehicle with no mileage record.
  db.add_disengagement(make_event(manufacturer::nissan, "GHOST", date::make(2016, 1, 3)));
  const auto vms = database_view(db).vehicle_months();
  ASSERT_EQ(vms.size(), 1u);
  EXPECT_EQ(vms[0].disengagements, 1);
}

TEST(Database, NoMonthEventsSpreadByMiles) {
  failure_database db;
  db.add_mileage(make_mileage(manufacturer::tesla, "A", {2016, 1}, 900));
  db.add_mileage(make_mileage(manufacturer::tesla, "B", {2016, 1}, 100));
  for (int i = 0; i < 10; ++i) {
    db.add_disengagement(make_event(manufacturer::tesla, "", std::nullopt));
  }
  long long a = 0;
  for (const auto& vm : database_view(db).vehicle_months()) {
    if (vm.vehicle_id == "A") a = vm.disengagements;
  }
  EXPECT_EQ(a, 9);  // miles-proportional
}

TEST(Database, AttributionConservesEventCount) {
  failure_database db;
  db.add_mileage(make_mileage(manufacturer::waymo, "A", {2016, 1}, 10));
  db.add_mileage(make_mileage(manufacturer::waymo, "B", {2016, 2}, 20));
  for (int i = 0; i < 7; ++i) {
    disengagement_record d;
    d.maker = manufacturer::waymo;
    d.event_month = year_month{2016, static_cast<std::uint8_t>(1 + (i % 2))};
    d.description = "x";
    db.add_disengagement(d);
  }
  long long total = 0;
  for (const auto& vm : database_view(db).vehicle_months()) total += vm.disengagements;
  EXPECT_EQ(total, 7);
}

TEST(Database, EventInMonthWithNoMileageFallsBackToHistory) {
  failure_database db;
  db.add_mileage(make_mileage(manufacturer::bosch, "A", {2016, 1}, 100));
  disengagement_record d;
  d.maker = manufacturer::bosch;
  d.event_month = year_month{2016, 6};  // no mileage that month
  d.description = "x";
  db.add_disengagement(d);
  long long total = 0;
  for (const auto& vm : database_view(db).vehicle_months()) total += vm.disengagements;
  EXPECT_EQ(total, 1);
}

TEST(Database, PerCarDpmAggregatesAcrossMonths) {
  failure_database db;
  db.add_mileage(make_mileage(manufacturer::delphi, "D1", {2015, 1}, 100));
  db.add_mileage(make_mileage(manufacturer::delphi, "D1", {2015, 2}, 200));
  db.add_disengagement(make_event(manufacturer::delphi, "D1", date::make(2015, 1, 2)));
  db.add_disengagement(make_event(manufacturer::delphi, "D1", date::make(2015, 2, 2)));
  // One car: its two months' 300 miles and 2 events, not the mean of the
  // monthly rates (1/100 and 1/200).
  const auto dpms = core::per_car_dpm(db, manufacturer::delphi);
  ASSERT_EQ(dpms.size(), 1u);
  EXPECT_NEAR(dpms[0], 2.0 / 300.0, 1e-12);
  double miles = 0;
  long long events = 0;
  for (const auto& vm : database_view(db).vehicle_months(manufacturer::delphi)) {
    EXPECT_EQ(vm.vehicle_id, "D1");
    miles += vm.miles;
    events += vm.disengagements;
  }
  EXPECT_DOUBLE_EQ(miles, 300);
  EXPECT_EQ(events, 2);
}

TEST(Database, ReactionTimesFilterByManufacturer) {
  failure_database db;
  auto d1 = make_event(manufacturer::waymo, "A", date::make(2016, 1, 1));
  d1.reaction_time_s = 0.8;
  auto d2 = make_event(manufacturer::nissan, "B", date::make(2016, 1, 1));
  d2.reaction_time_s = 1.1;
  auto d3 = make_event(manufacturer::waymo, "A", date::make(2016, 1, 2));  // no RT
  db.add_disengagement(d1);
  db.add_disengagement(d2);
  db.add_disengagement(d3);
  EXPECT_EQ(database_view(db).reaction_times().size(), 2u);
  EXPECT_EQ(database_view(db).reaction_times(manufacturer::waymo).size(), 1u);
  EXPECT_DOUBLE_EQ(database_view(db).reaction_times(manufacturer::waymo)[0], 0.8);
}

TEST(Database, DuplicateMileageCellsMerge) {
  failure_database db;
  db.add_mileage(make_mileage(manufacturer::ford, "F", {2016, 9}, 10));
  db.add_mileage(make_mileage(manufacturer::ford, "F", {2016, 9}, 15));
  const auto vms = database_view(db).vehicle_months();
  ASSERT_EQ(vms.size(), 1u);
  EXPECT_DOUBLE_EQ(vms[0].miles, 25);
}

}  // namespace
}  // namespace avtk::dataset
