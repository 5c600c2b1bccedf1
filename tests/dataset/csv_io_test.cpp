#include "dataset/csv_io.h"

#include <gtest/gtest.h>

#include "csv_reference.h"
#include "dataset/generator.h"
#include "util/errors.h"

namespace avtk::dataset {
namespace {

TEST(CsvIo, RoundTripsTheFullCorpus) {
  generator_config cfg;
  cfg.render_documents = false;
  const auto db = generate_corpus(cfg).to_database();
  const auto csv = export_csv(db);
  const auto back = import_csv(csv);

  ASSERT_EQ(back.disengagements().size(), db.disengagements().size());
  ASSERT_EQ(back.mileage().size(), db.mileage().size());
  ASSERT_EQ(back.accidents().size(), db.accidents().size());

  for (std::size_t i = 0; i < db.disengagements().size(); ++i) {
    const auto& a = db.disengagements()[i];
    const auto& b = back.disengagements()[i];
    EXPECT_EQ(a.maker, b.maker);
    EXPECT_EQ(a.report_year, b.report_year);
    EXPECT_EQ(a.event_date, b.event_date);
    EXPECT_EQ(a.event_month, b.event_month);
    EXPECT_EQ(a.vehicle_id, b.vehicle_id);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.road, b.road);
    EXPECT_EQ(a.conditions, b.conditions);
    EXPECT_EQ(a.tag, b.tag);
    EXPECT_EQ(a.category, b.category);
    EXPECT_EQ(a.description, b.description);
    EXPECT_EQ(a.reaction_time_s.has_value(), b.reaction_time_s.has_value());
    if (a.reaction_time_s) {
      EXPECT_NEAR(*a.reaction_time_s, *b.reaction_time_s, 1e-6);
    }
  }
  for (std::size_t i = 0; i < db.mileage().size(); ++i) {
    EXPECT_EQ(db.mileage()[i].vehicle_id, back.mileage()[i].vehicle_id);
    EXPECT_EQ(db.mileage()[i].month, back.mileage()[i].month);
    EXPECT_NEAR(db.mileage()[i].miles, back.mileage()[i].miles, 1e-6);
  }
  for (std::size_t i = 0; i < db.accidents().size(); ++i) {
    const auto& a = db.accidents()[i];
    const auto& b = back.accidents()[i];
    EXPECT_EQ(a.location, b.location);
    EXPECT_EQ(a.rear_end, b.rear_end);
    EXPECT_EQ(a.near_intersection, b.near_intersection);
    EXPECT_EQ(a.av_in_autonomous_mode, b.av_in_autonomous_mode);
    EXPECT_EQ(a.description, b.description);
  }
}

TEST(CsvIo, ExportedHeadersPresent) {
  failure_database db;
  const auto csv = export_csv(db);
  EXPECT_NE(csv.disengagements.find("manufacturer,"), std::string::npos);
  EXPECT_NE(csv.mileage.find("miles"), std::string::npos);
  EXPECT_NE(csv.accidents.find("av_speed_mph"), std::string::npos);
}

TEST(CsvIo, EmptyDatabaseRoundTrips) {
  failure_database db;
  const auto back = import_csv(export_csv(db));
  EXPECT_TRUE(back.disengagements().empty());
  EXPECT_TRUE(back.mileage().empty());
  EXPECT_TRUE(back.accidents().empty());
}

TEST(CsvIo, RejectsBadManufacturer) {
  database_csv csv = export_csv(failure_database{});
  csv.mileage += "martian_motors,2016,M1,2016-01,100\n";
  EXPECT_THROW(import_csv(csv), parse_error);
}

TEST(CsvIo, RejectsMalformedNumbers) {
  database_csv csv = export_csv(failure_database{});
  csv.mileage += "waymo,2016,W1,2016-01,not_a_number\n";
  EXPECT_THROW(import_csv(csv), parse_error);
}

TEST(CsvIo, RejectsBadTag) {
  database_csv csv = export_csv(failure_database{});
  csv.disengagements +=
      "waymo,2016,2016-01-05,,W1,Manual,Highway,Sunny,0.8,not_a_tag,System,desc\n";
  EXPECT_THROW(import_csv(csv), parse_error);
}

TEST(CsvIo, DescriptionsWithCommasAndQuotesSurvive) {
  failure_database db;
  disengagement_record d;
  d.maker = manufacturer::waymo;
  d.report_year = 2016;
  d.event_month = year_month{2016, 5};
  d.description = "saw \"phantom\" object, stopped; driver took over";
  db.add_disengagement(d);
  const auto back = import_csv(export_csv(db));
  ASSERT_EQ(back.disengagements().size(), 1u);
  EXPECT_EQ(back.disengagements()[0].description, d.description);
}

// Adversarial descriptions: the RFC 4180 corner cases a free-text cause
// field can legitimately contain. export(import(export(x))) must be exact
// for every one of them, in both record types that carry descriptions.
class AdversarialDescription : public ::testing::TestWithParam<std::string> {};

TEST_P(AdversarialDescription, DisengagementSurvivesRoundTrip) {
  failure_database db;
  disengagement_record d;
  d.maker = manufacturer::waymo;
  d.report_year = 2016;
  d.event_month = year_month{2016, 5};
  d.description = GetParam();
  db.add_disengagement(d);
  const auto csv = export_csv(db);
  const auto back = import_csv(csv);
  ASSERT_EQ(back.disengagements().size(), 1u);
  EXPECT_EQ(back.disengagements()[0].description, GetParam());
  // Second trip is byte-stable: nothing was "almost" escaped.
  EXPECT_EQ(export_csv(back).disengagements, csv.disengagements);
}

TEST_P(AdversarialDescription, AccidentSurvivesRoundTrip) {
  failure_database db;
  accident_record a;
  a.maker = manufacturer::gm_cruise;
  a.report_year = 2017;
  a.event_date = date::make(2017, 3, 9);
  a.description = GetParam();
  db.add_accident(a);
  const auto csv = export_csv(db);
  const auto back = import_csv(csv);
  ASSERT_EQ(back.accidents().size(), 1u);
  EXPECT_EQ(back.accidents()[0].description, GetParam());
  EXPECT_EQ(export_csv(back).accidents, csv.accidents);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc4180Corners, AdversarialDescription,
    ::testing::Values("plain cause", "comma, then more", "a \"quoted\" word",
                      "quote before comma\", then text", "mid\"quote",
                      "ends with quote\"", "\"starts with quote",
                      "multi\nline\ndescription", "crlf\r\ninside",
                      "trailing comma,", ",", "\"", "\"\"", ""));

}  // namespace
}  // namespace avtk::dataset
