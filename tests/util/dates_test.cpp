#include "util/dates.h"

#include <gtest/gtest.h>

#include "util/errors.h"

namespace avtk {
namespace {

TEST(Date, MakeValid) {
  const auto d = date::make(2016, 5, 25);
  EXPECT_EQ(d.year, 2016);
  EXPECT_EQ(d.month, 5);
  EXPECT_EQ(d.day, 25);
}

TEST(Date, MakeRejectsInvalid) {
  EXPECT_THROW(date::make(2016, 13, 1), parse_error);
  EXPECT_THROW(date::make(2016, 0, 1), parse_error);
  EXPECT_THROW(date::make(2016, 2, 30), parse_error);
  EXPECT_THROW(date::make(2015, 2, 29), parse_error);
}

TEST(Date, LeapYears) {
  EXPECT_TRUE(date::is_leap_year(2016));
  EXPECT_TRUE(date::is_leap_year(2000));
  EXPECT_FALSE(date::is_leap_year(1900));
  EXPECT_FALSE(date::is_leap_year(2015));
  EXPECT_NO_THROW(date::make(2016, 2, 29));
}

TEST(Date, DaysInMonth) {
  EXPECT_EQ(date::days_in_month(2016, 2), 29);
  EXPECT_EQ(date::days_in_month(2015, 2), 28);
  EXPECT_EQ(date::days_in_month(2015, 4), 30);
  EXPECT_EQ(date::days_in_month(2015, 12), 31);
}

TEST(Date, EpochConversionKnownValues) {
  EXPECT_EQ(date::make(1970, 1, 1).to_days(), 0);
  EXPECT_EQ(date::make(1970, 1, 2).to_days(), 1);
  EXPECT_EQ(date::make(1969, 12, 31).to_days(), -1);
  EXPECT_EQ(date::make(2000, 3, 1).to_days(), 11017);
}

TEST(Date, Ordering) {
  EXPECT_LT(date::make(2015, 11, 30), date::make(2015, 12, 1));
  EXPECT_LT(date::make(2015, 12, 31), date::make(2016, 1, 1));
}

TEST(Date, ToString) { EXPECT_EQ(date::make(2016, 1, 4).to_string(), "2016-01-04"); }

TEST(YearMonth, IndexRoundTrip) {
  const year_month ym{2016, 5};
  EXPECT_EQ(year_month::from_index(ym.index()), ym);
  EXPECT_EQ(year_month::from_index(0), (year_month{0, 1}));
}

TEST(YearMonth, NextWrapsYear) {
  EXPECT_EQ((year_month{2015, 12}).next(), (year_month{2016, 1}));
  EXPECT_EQ((year_month{2016, 5}).next(), (year_month{2016, 6}));
}

TEST(YearMonth, Strings) {
  EXPECT_EQ((year_month{2016, 5}).to_string(), "2016-05");
  EXPECT_EQ((year_month{2016, 5}).to_pretty_string(), "May 2016");
}

TEST(MonthNames, FullAndAbbrev) {
  EXPECT_EQ(dates::month_from_name("January").value(), 1);
  EXPECT_EQ(dates::month_from_name("jan").value(), 1);
  EXPECT_EQ(dates::month_from_name("Sept").value(), 9);
  EXPECT_EQ(dates::month_from_name("Dec.").value(), 12);
  EXPECT_FALSE(dates::month_from_name("Janissary").has_value());
  EXPECT_FALSE(dates::month_from_name("").has_value());
}

TEST(MonthNames, Lookup) {
  EXPECT_EQ(dates::month_name(5), "May");
  EXPECT_EQ(dates::month_abbrev(9), "Sep");
  EXPECT_THROW(dates::month_name(0), logic_error);
}

TEST(ParseDate, UsShortFormat) {
  const auto d = dates::parse_date("1/4/16");
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, date::make(2016, 1, 4));
}

TEST(ParseDate, UsLongFormat) {
  EXPECT_EQ(dates::parse_date("11/12/2014").value(), date::make(2014, 11, 12));
}

TEST(ParseDate, Iso) {
  EXPECT_EQ(dates::parse_date("2016-05-25").value(), date::make(2016, 5, 25));
}

TEST(ParseDate, MonthNameFormats) {
  EXPECT_EQ(dates::parse_date("January 4, 2016").value(), date::make(2016, 1, 4));
  EXPECT_EQ(dates::parse_date("Jan 4 2016").value(), date::make(2016, 1, 4));
}

TEST(ParseDate, RejectsInvalid) {
  EXPECT_FALSE(dates::parse_date("13/1/16"));    // month 13
  EXPECT_FALSE(dates::parse_date("2/30/16"));    // Feb 30
  EXPECT_FALSE(dates::parse_date("hello"));
  EXPECT_FALSE(dates::parse_date(""));
  EXPECT_FALSE(dates::parse_date("May-16"));     // month granularity, not a date
}

TEST(ParseYearMonth, WaymoDashStyle) {
  EXPECT_EQ(dates::parse_year_month("May-16").value(), (year_month{2016, 5}));
  EXPECT_EQ(dates::parse_year_month("Dec-2015").value(), (year_month{2015, 12}));
}

TEST(ParseYearMonth, IsoAndSpaced) {
  EXPECT_EQ(dates::parse_year_month("2016-05").value(), (year_month{2016, 5}));
  EXPECT_EQ(dates::parse_year_month("Nov 2014").value(), (year_month{2014, 11}));
}

TEST(ParseYearMonth, RejectsInvalid) {
  EXPECT_FALSE(dates::parse_year_month("5/16"));  // ambiguous with dates
  EXPECT_FALSE(dates::parse_year_month("2016-13"));
  EXPECT_FALSE(dates::parse_year_month("sometime"));
}

// Property sweep: every (year, month) in the study window round-trips
// through its index and pretty strings parse back.
class YearMonthRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(YearMonthRoundTrip, IndexAndParseRoundTrip) {
  const auto ym = year_month::from_index(GetParam());
  EXPECT_EQ(ym.index(), GetParam());
  EXPECT_EQ(dates::parse_year_month(ym.to_string()).value(), ym);
  EXPECT_EQ(dates::parse_year_month(ym.to_pretty_string()).value(), ym);
}

INSTANTIATE_TEST_SUITE_P(StudyWindow, YearMonthRoundTrip,
                         ::testing::Range(static_cast<int>(2014 * 12 + 8),
                                          static_cast<int>(2016 * 12 + 11)));

}  // namespace
}  // namespace avtk
