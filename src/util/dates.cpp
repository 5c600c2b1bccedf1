#include "util/dates.h"

#include <array>
#include <cstdio>

#include "util/errors.h"
#include "util/strings.h"

namespace avtk {

namespace {

constexpr std::array<std::string_view, 12> k_month_names = {
    "January", "February", "March",     "April",   "May",      "June",
    "July",    "August",   "September", "October", "November", "December"};

constexpr std::array<std::string_view, 12> k_month_abbrevs = {
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

int expand_two_digit_year(int y) { return y < 100 ? 2000 + y : y; }

}  // namespace

bool date::is_leap_year(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int date::days_in_month(int year, int month) {
  static constexpr std::array<int, 12> lengths = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month < 1 || month > 12) return 0;
  if (month == 2 && is_leap_year(year)) return 29;
  return lengths[static_cast<std::size_t>(month - 1)];
}

bool date::valid(int year, int month, int day) {
  return month >= 1 && month <= 12 && day >= 1 && day <= days_in_month(year, month);
}

date date::make(int year, int month, int day) {
  if (!valid(year, month, day)) {
    throw parse_error("invalid date " + std::to_string(year) + "-" + std::to_string(month) + "-" +
                      std::to_string(day));
  }
  return date{static_cast<std::int32_t>(year), static_cast<std::uint8_t>(month),
              static_cast<std::uint8_t>(day)};
}

// Howard Hinnant's days-from-civil algorithm.
std::int64_t date::to_days() const {
  std::int64_t y = year;
  const int m = month;
  const int d = day;
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const std::int64_t yoe = y - era * 400;                                      // [0, 399]
  const std::int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;     // [0, 365]
  const std::int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;              // [0, 146096]
  return era * 146097 + doe - 719468;
}

std::string date::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02u-%02u", year, month, day);
  return buf;
}

year_month year_month::from_index(std::int64_t idx) {
  std::int64_t y = idx / 12;
  std::int64_t m = idx % 12;
  if (m < 0) {
    m += 12;
    y -= 1;
  }
  return year_month{static_cast<std::int32_t>(y), static_cast<std::uint8_t>(m + 1)};
}

std::string year_month::to_string() const {
  char buf[12];
  std::snprintf(buf, sizeof(buf), "%04d-%02u", year, month);
  return buf;
}

std::string year_month::to_pretty_string() const {
  return std::string(dates::month_name(month)) + " " + std::to_string(year);
}

namespace dates {

std::optional<int> month_from_name(std::string_view name) {
  name = str::trim(name);
  if (name.size() < 3) return std::nullopt;
  for (int m = 1; m <= 12; ++m) {
    const auto full = k_month_names[static_cast<std::size_t>(m - 1)];
    const auto abbr = k_month_abbrevs[static_cast<std::size_t>(m - 1)];
    if (str::iequals(name, full) || str::iequals(name, abbr)) return m;
    // Accept "Sept" and abbreviations with a trailing period ("Jan.").
    if (name.back() == '.' && str::iequals(name.substr(0, name.size() - 1), abbr)) return m;
    if (str::iequals(name, "Sept") && m == 9) return m;
  }
  return std::nullopt;
}

std::string_view month_name(int month) {
  if (month < 1 || month > 12) throw logic_error("month out of range");
  return k_month_names[static_cast<std::size_t>(month - 1)];
}

std::string_view month_abbrev(int month) {
  if (month < 1 || month > 12) throw logic_error("month out of range");
  return k_month_abbrevs[static_cast<std::size_t>(month - 1)];
}

std::optional<date> parse_date(std::string_view s) {
  s = str::trim(s);
  if (s.empty()) return std::nullopt;
  std::array<std::string_view, 3> parts;

  // ISO "YYYY-MM-DD".
  if (str::split_into(s, '-', parts) == 3) {
    const auto y = str::parse_int(parts[0]);
    const auto m = str::parse_int(parts[1]);
    const auto d = str::parse_int(parts[2]);
    if (y && m && d && parts[0].size() == 4 &&
        date::valid(static_cast<int>(*y), static_cast<int>(*m), static_cast<int>(*d))) {
      return date::make(static_cast<int>(*y), static_cast<int>(*m), static_cast<int>(*d));
    }
  }

  // US "M/D/YY" or "MM/DD/YYYY".
  if (str::split_into(s, '/', parts) == 3) {
    const auto m = str::parse_int(parts[0]);
    const auto d = str::parse_int(parts[1]);
    const auto y = str::parse_int(parts[2]);
    if (m && d && y) {
      const int year = expand_two_digit_year(static_cast<int>(*y));
      if (date::valid(year, static_cast<int>(*m), static_cast<int>(*d))) {
        return date::make(year, static_cast<int>(*m), static_cast<int>(*d));
      }
    }
  }

  // "January 4, 2016" / "Jan 4 2016": commas separate like whitespace.
  if (str::split_whitespace_into(s, parts, ",") == 3) {
    const auto m = month_from_name(parts[0]);
    const auto d = str::parse_int(parts[1]);
    const auto y = str::parse_int(parts[2]);
    if (m && d && y) {
      const int year = expand_two_digit_year(static_cast<int>(*y));
      if (date::valid(year, *m, static_cast<int>(*d))) {
        return date::make(year, *m, static_cast<int>(*d));
      }
    }
  }

  return std::nullopt;
}

std::optional<year_month> parse_year_month(std::string_view s) {
  s = str::trim(s);
  if (s.empty()) return std::nullopt;
  std::array<std::string_view, 2> parts;

  // "May-16" / "May-2016".
  if (str::split_into(s, '-', parts) == 2) {
    const auto m = month_from_name(parts[0]);
    const auto y = str::parse_int(parts[1]);
    if (m && y) {
      return year_month{static_cast<std::int32_t>(expand_two_digit_year(static_cast<int>(*y))),
                        static_cast<std::uint8_t>(*m)};
    }
    // ISO "2016-05".
    const auto y2 = str::parse_int(parts[0]);
    const auto m2 = str::parse_int(parts[1]);
    if (y2 && m2 && parts[0].size() == 4 && *m2 >= 1 && *m2 <= 12) {
      return year_month{static_cast<std::int32_t>(*y2), static_cast<std::uint8_t>(*m2)};
    }
  }

  // "May 2016".
  if (str::split_whitespace_into(s, parts) == 2) {
    const auto m = month_from_name(parts[0]);
    const auto y = str::parse_int(parts[1]);
    if (m && y && *y >= 1900) {
      return year_month{static_cast<std::int32_t>(*y), static_cast<std::uint8_t>(*m)};
    }
  }

  return std::nullopt;
}

}  // namespace dates
}  // namespace avtk
