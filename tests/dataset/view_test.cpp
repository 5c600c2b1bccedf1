// database_view: the failure database's only read surface, which every
// Stage-IV builder and the serve tier's indexed executor run over. An
// unrestricted view must agree with a view selecting every record on
// every aggregate; a restricted view must iterate exactly the selected
// records in ascending original order; and database copies must share
// untouched domain arrays, not copy them.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dataset/database.h"
#include "dataset/view.h"

namespace avtk::dataset {
namespace {

disengagement_record make_disengagement(manufacturer maker, int year, int month,
                                        nlp::fault_tag tag, const std::string& vehicle = "v1") {
  disengagement_record d;
  d.maker = maker;
  d.report_year = year < 2017 ? 2016 : 2017;
  d.event_month = year_month{year, static_cast<std::uint8_t>(month)};
  d.vehicle_id = vehicle;
  d.mode = modality::automatic;
  d.description = "view test event";
  d.tag = tag;
  d.category = nlp::category_of(tag);
  return d;
}

mileage_record make_mileage(manufacturer maker, int year, int month, double miles,
                            const std::string& vehicle = "v1") {
  mileage_record m;
  m.maker = maker;
  m.report_year = year < 2017 ? 2016 : 2017;
  m.vehicle_id = vehicle;
  m.month = year_month{year, static_cast<std::uint8_t>(month)};
  m.miles = miles;
  return m;
}

accident_record make_accident(manufacturer maker, int year, int month) {
  accident_record a;
  a.maker = maker;
  a.report_year = year < 2017 ? 2016 : 2017;
  a.event_date = date{year, static_cast<std::uint8_t>(month), 15};
  a.description = "view test accident";
  return a;
}

failure_database make_db() {
  failure_database db;
  db.add_disengagement(make_disengagement(manufacturer::waymo, 2016, 1, nlp::fault_tag::planner));
  db.add_disengagement(make_disengagement(manufacturer::waymo, 2016, 2, nlp::fault_tag::software));
  db.add_disengagement(make_disengagement(manufacturer::delphi, 2016, 3, nlp::fault_tag::planner));
  db.add_disengagement(
      make_disengagement(manufacturer::delphi, 2016, 4, nlp::fault_tag::environment));
  db.add_mileage(make_mileage(manufacturer::waymo, 2016, 1, 100.0));
  db.add_mileage(make_mileage(manufacturer::waymo, 2016, 2, 200.0));
  db.add_mileage(make_mileage(manufacturer::delphi, 2016, 3, 50.0));
  db.add_accident(make_accident(manufacturer::waymo, 2016, 1));
  db.add_accident(make_accident(manufacturer::delphi, 2016, 3));
  return db;
}

TEST(DatabaseView, UnrestrictedViewMatchesDatabaseAggregates) {
  const auto db = make_db();
  const database_view view(db);
  EXPECT_FALSE(view.restricted());
  EXPECT_EQ(view.total_disengagements(), 4);
  EXPECT_EQ(view.total_accidents(), 2);
  EXPECT_DOUBLE_EQ(view.total_miles(), 350.0);
  EXPECT_DOUBLE_EQ(view.total_miles(manufacturer::waymo), 300.0);
  EXPECT_EQ(view.disengagements().size(), db.disengagements().size());

  // Selecting every record must read exactly like no selection.
  selection all_dis(db.disengagements().size());
  selection all_mil(db.mileage().size());
  selection all_acc(db.accidents().size());
  std::iota(all_dis.begin(), all_dis.end(), 0u);
  std::iota(all_mil.begin(), all_mil.end(), 0u);
  std::iota(all_acc.begin(), all_acc.end(), 0u);
  const database_view full(db, std::span<const std::uint32_t>(all_dis),
                           std::span<const std::uint32_t>(all_mil),
                           std::span<const std::uint32_t>(all_acc));
  EXPECT_TRUE(full.restricted());
  EXPECT_EQ(full.total_disengagements(), view.total_disengagements());
  EXPECT_EQ(full.total_accidents(), view.total_accidents());
  EXPECT_DOUBLE_EQ(full.total_miles(), view.total_miles());
  EXPECT_DOUBLE_EQ(full.total_miles(manufacturer::waymo), view.total_miles(manufacturer::waymo));

  const auto view_vm = view.vehicle_months();
  const auto full_vm = full.vehicle_months();
  ASSERT_EQ(view_vm.size(), full_vm.size());
  for (std::size_t i = 0; i < view_vm.size(); ++i) {
    EXPECT_EQ(view_vm[i].maker, full_vm[i].maker);
    EXPECT_DOUBLE_EQ(view_vm[i].miles, full_vm[i].miles);
    EXPECT_EQ(view_vm[i].disengagements, full_vm[i].disengagements);
  }
}

TEST(DatabaseView, SelectionRestrictsIterationInAscendingOrder) {
  const auto db = make_db();
  const std::vector<std::uint32_t> dis_sel = {1, 3};  // waymo/software, delphi/environment
  const database_view view(db, std::span<const std::uint32_t>(dis_sel), std::nullopt,
                           std::nullopt);
  EXPECT_TRUE(view.restricted());
  ASSERT_EQ(view.disengagements().size(), 2u);
  auto it = view.disengagements().begin();
  EXPECT_EQ((*it).tag, nlp::fault_tag::software);
  ++it;
  EXPECT_EQ((*it).tag, nlp::fault_tag::environment);
  // Unselected domains stay full.
  EXPECT_EQ(view.mileage().size(), db.mileage().size());
  EXPECT_EQ(view.accidents().size(), db.accidents().size());
  EXPECT_EQ(view.total_disengagements(manufacturer::waymo), 1);
  EXPECT_EQ(view.total_disengagements(manufacturer::delphi), 1);
}

TEST(DatabaseView, EmptySelectionYieldsEmptyDomain) {
  const auto db = make_db();
  const std::vector<std::uint32_t> empty;
  const database_view view(db, std::span<const std::uint32_t>(empty),
                           std::span<const std::uint32_t>(empty),
                           std::span<const std::uint32_t>(empty));
  EXPECT_TRUE(view.disengagements().empty());
  EXPECT_TRUE(view.mileage().empty());
  EXPECT_TRUE(view.accidents().empty());
  EXPECT_EQ(view.total_disengagements(), 0);
  EXPECT_EQ(view.total_accidents(), 0);
  EXPECT_DOUBLE_EQ(view.total_miles(), 0.0);
  EXPECT_TRUE(view.vehicle_months().empty());
  EXPECT_TRUE(view.manufacturers_present().empty());
}

TEST(DatabaseView, ManufacturersPresentIsEnumOrdered) {
  failure_database db;
  // Insert out of enum order; the view must still report enum order.
  db.add_disengagement(make_disengagement(manufacturer::waymo, 2016, 1, nlp::fault_tag::planner));
  db.add_mileage(make_mileage(manufacturer::bosch, 2016, 1, 10.0));
  db.add_disengagement(make_disengagement(manufacturer::delphi, 2016, 2, nlp::fault_tag::planner));
  const auto present = database_view(db).manufacturers_present();
  const std::vector<manufacturer> expected = {manufacturer::bosch, manufacturer::delphi,
                                              manufacturer::waymo};
  EXPECT_EQ(present, expected);
}

// True when both arrays hold the same chunk pointers, in the same order.
template <typename T>
bool shares_every_chunk(const chunked_array<T>& a, const chunked_array<T>& b) {
  if (a.chunk_count() != b.chunk_count()) return false;
  for (std::size_t k = 0; k < a.chunk_count(); ++k) {
    if (a.chunk_at(k) != b.chunk_at(k)) return false;
  }
  return true;
}

TEST(DatabaseView, StructuralAdoptersShareArraysAndVersion) {
  const auto db = make_db();
  // A copy adopts every domain structurally; a write clones only the
  // domain it touches.
  failure_database other = db;
  other.add_disengagement(
      make_disengagement(manufacturer::waymo, 2016, 6, nlp::fault_tag::sensor));
  // Untouched domains alias every source chunk — same address, no copy.
  // The written domain's only chunk is its partly filled tail, which the
  // append cloned.
  EXPECT_TRUE(shares_every_chunk(other.mileage(), db.mileage()));
  EXPECT_TRUE(shares_every_chunk(other.accidents(), db.accidents()));
  ASSERT_EQ(db.disengagements().chunk_count(), 1u);
  ASSERT_EQ(other.disengagements().chunk_count(), 1u);
  EXPECT_NE(other.disengagements().chunk_at(0), db.disengagements().chunk_at(0));
  EXPECT_EQ(other.version().mileage, db.version().mileage);
  EXPECT_EQ(other.version().accidents, db.version().accidents);
  EXPECT_EQ(other.version().disengagements, db.version().disengagements + 1);
  // The written domain is its own; views over both read the shared ones.
  const database_view mine(other);
  const database_view theirs(db);
  EXPECT_EQ(mine.total_disengagements(), theirs.total_disengagements() + 1);
  EXPECT_DOUBLE_EQ(mine.total_miles(), theirs.total_miles());
}

}  // namespace
}  // namespace avtk::dataset
