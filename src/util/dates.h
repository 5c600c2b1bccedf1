// avtk/util/dates.h
//
// Civil (proleptic Gregorian) date handling, tolerant parsing of the many
// date formats that appear in CA DMV reports ("1/4/16", "May-16",
// "2016-05-25", "May 2016"), and month arithmetic used to bucket
// disengagements into reporting periods. The parsers split into views of
// their input and never allocate.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace avtk {

/// A calendar date. Invariant: represents a valid civil date once
/// constructed through `make` or parsed; the default instance is
/// 1970-01-01.
struct date {
  std::int32_t year = 1970;
  std::uint8_t month = 1;  ///< 1..12
  std::uint8_t day = 1;    ///< 1..31, valid for the month

  auto operator<=>(const date&) const = default;

  /// Days since 1970-01-01 (can be negative).
  std::int64_t to_days() const;

  /// Validated constructor; throws avtk::parse_error on an invalid date.
  static date make(int year, int month, int day);

  /// True when (year, month, day) form a valid civil date.
  static bool valid(int year, int month, int day);

  /// Days in `month` of `year`.
  static int days_in_month(int year, int month);

  static bool is_leap_year(int year);

  /// ISO "YYYY-MM-DD".
  std::string to_string() const;

  /// Months since year 0 — convenient linear month index for bucketing.
  std::int64_t month_index() const { return static_cast<std::int64_t>(year) * 12 + (month - 1); }
};

/// A (year, month) pair used for monthly mileage aggregation.
struct year_month {
  std::int32_t year = 1970;
  std::uint8_t month = 1;

  auto operator<=>(const year_month&) const = default;

  std::int64_t index() const { return static_cast<std::int64_t>(year) * 12 + (month - 1); }
  static year_month from_index(std::int64_t idx);
  year_month next() const { return from_index(index() + 1); }

  /// "2016-05".
  std::string to_string() const;
  /// "May 2016".
  std::string to_pretty_string() const;
};

namespace dates {

/// Month name lookup: accepts full ("January") and abbreviated ("Jan")
/// names, case-insensitively. Returns 1..12 or nullopt.
std::optional<int> month_from_name(std::string_view name);

/// English month name ("January") / abbreviation ("Jan") for 1..12.
std::string_view month_name(int month);
std::string_view month_abbrev(int month);

/// Parses the date formats observed in DMV reports:
///   "1/4/16", "01/04/2016"          (US month/day/year)
///   "2016-01-04"                     (ISO)
///   "January 4, 2016", "Jan 4 2016"
/// Two-digit years are interpreted as 20xx.
std::optional<date> parse_date(std::string_view s);

/// Parses month-granularity stamps: "May-16", "May 2016", "2016-05",
/// "5/16" is ambiguous with dates and therefore NOT accepted here.
std::optional<year_month> parse_year_month(std::string_view s);

}  // namespace dates
}  // namespace avtk
