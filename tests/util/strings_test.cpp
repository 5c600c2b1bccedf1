#include "util/strings.h"

#include <gtest/gtest.h>

#include <array>
#include <string_view>

#include "util/rng.h"

namespace avtk::str {
namespace {

TEST(Trim, RemovesLeadingAndTrailingWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nhello\r\n"), "hello");
}

TEST(Trim, EmptyAndAllWhitespace) {
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   \t\n "), "");
}

TEST(Trim, PreservesInnerWhitespace) { EXPECT_EQ(trim(" a b "), "a b"); }

TEST(Case, ToLower) {
  EXPECT_EQ(to_lower("Hello World 123"), "hello world 123");
  EXPECT_EQ(to_lower(""), "");
}

TEST(Split, OnChar) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, AdjacentSeparatorsYieldEmptyFields) {
  const auto parts = split("a,,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Split, LeadingAndTrailingSeparators) {
  const auto parts = split(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
}

TEST(Split, EmptyInputGivesOneEmptyField) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Split, OnMultiCharSeparator) {
  std::array<std::string_view, 4> parts{};
  ASSERT_EQ(split_into("a -- b -- c", " -- ", parts), 3u);
  EXPECT_EQ(parts[1], "b");
}

TEST(Split, MultiCharSeparatorAbsent) {
  std::array<std::string_view, 4> parts{};
  ASSERT_EQ(split_into("abc", " -- ", parts), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(SplitWhitespace, CollapsesRuns) {
  const auto parts = split_whitespace("  a \t b\n\nc ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitWhitespace, EmptyGivesNoFields) {
  EXPECT_TRUE(split_whitespace("   ").empty());
  EXPECT_TRUE(split_whitespace("").empty());
}

TEST(Join, RoundTripsSplit) {
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Affixes, StartsWith) {
  EXPECT_TRUE(starts_with("disengagement", "dis"));
  EXPECT_FALSE(starts_with("dis", "disengagement"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(Affixes, Contains) {
  EXPECT_TRUE(contains("watchdog error", "dog"));
  EXPECT_FALSE(contains("watchdog", "cat"));
}

TEST(CaseInsensitive, IEquals) {
  EXPECT_TRUE(iequals("WayMo", "waymo"));
  EXPECT_FALSE(iequals("waymo", "waym"));
  EXPECT_TRUE(iequals("", ""));
}

TEST(CaseInsensitive, IContains) {
  EXPECT_TRUE(icontains("Takeover-Request", "REQUEST"));
  EXPECT_FALSE(icontains("short", "longneedle"));
  EXPECT_TRUE(icontains("anything", ""));
}

// Normalizes a copy of `s` in place; returns the result.
std::string normalized(std::string s) {
  normalize_whitespace(s);
  return s;
}

TEST(NormalizeWhitespace, CollapsesAndTrims) {
  EXPECT_EQ(normalized("  a\t\tb  c  "), "a b c");
  EXPECT_EQ(normalized(""), "");
  EXPECT_EQ(normalized(" \n "), "");
}

// The copying version normalize_whitespace replaced, kept as the oracle.
std::string reference_normalize_whitespace(std::string_view s) {
  std::string out;
  bool in_space = true;
  for (const char c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v') {
      if (!in_space) out += ' ';
      in_space = true;
    } else {
      out += c;
      in_space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

// Seeded sweep over short strings that are mostly whitespace of every
// kind: the in-place result and its "changed" verdict match the copying
// reference, and the buffer is never reallocated.
TEST(NormalizeWhitespace, MatchesCopyingReference) {
  rng gen(3131);
  const std::string alphabet = "ab  \t\n\r\f\v";
  for (int round = 0; round < 5000; ++round) {
    std::string s(static_cast<std::size_t>(gen.uniform_int(0, 12)), ' ');
    for (auto& c : s) {
      c = alphabet[static_cast<std::size_t>(
          gen.uniform_int(0, static_cast<std::int64_t>(alphabet.size()) - 1))];
    }
    const std::string expected = reference_normalize_whitespace(s);
    const std::string before = s;
    const char* buffer = s.data();
    const bool changed = normalize_whitespace(s);
    ASSERT_EQ(s, expected) << "input \"" << before << '"';
    EXPECT_EQ(changed, expected != before) << "input \"" << before << '"';
    EXPECT_EQ(s.data(), buffer);

    // Normalized text is a fixed point.
    EXPECT_FALSE(normalize_whitespace(s));
    EXPECT_EQ(s, expected);
  }
}

TEST(ParseInt, ValidValues) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("-17").value(), -17);
  EXPECT_EQ(parse_int("  1024 ").value(), 1024);
}

TEST(ParseInt, RejectsGarbage) {
  EXPECT_FALSE(parse_int("12x"));
  EXPECT_FALSE(parse_int(""));
  EXPECT_FALSE(parse_int("1.5"));
  EXPECT_FALSE(parse_int("x12"));
}

TEST(ParseDouble, ValidValues) {
  EXPECT_DOUBLE_EQ(parse_double("0.85").value(), 0.85);
  EXPECT_DOUBLE_EQ(parse_double("-3.5e-4").value(), -3.5e-4);
  EXPECT_DOUBLE_EQ(parse_double(" 42 ").value(), 42.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_FALSE(parse_double("0.85s"));
  EXPECT_FALSE(parse_double(""));
  EXPECT_FALSE(parse_double("--1"));
}

TEST(ParseNumberLenient, ThousandsSeparators) {
  EXPECT_DOUBLE_EQ(parse_number_lenient("1,116,605").value(), 1116605.0);
}

TEST(ParseNumberLenient, Percent) {
  EXPECT_DOUBLE_EQ(parse_number_lenient("59.52%").value(), 0.5952);
}

TEST(ParseNumberLenient, PlainNumberUnchanged) {
  EXPECT_DOUBLE_EQ(parse_number_lenient("16661").value(), 16661.0);
}

TEST(EditDistance, KnownValues) {
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(edit_distance("", "abc"), 3u);
  EXPECT_EQ(edit_distance("abc", "abc"), 0u);
  EXPECT_EQ(edit_distance("waymo", "wayno"), 1u);
}

TEST(EditDistance, Symmetry) {
  EXPECT_EQ(edit_distance("disengage", "disengaged"), edit_distance("disengaged", "disengage"));
}

TEST(EditDistance, TriangleInequalitySpotCheck) {
  const auto ab = edit_distance("bosch", "basch");
  const auto bc = edit_distance("basch", "batch");
  const auto ac = edit_distance("bosch", "batch");
  EXPECT_LE(ac, ab + bc);
}

TEST(WithinEditDistance, KnownValues) {
  EXPECT_TRUE(within_edit_distance("kitten", "sitting", 3));
  EXPECT_FALSE(within_edit_distance("kitten", "sitting", 2));
  EXPECT_TRUE(within_edit_distance("", "", 0));
  EXPECT_TRUE(within_edit_distance("", "abc", 3));
  EXPECT_FALSE(within_edit_distance("", "abc", 2));
  EXPECT_FALSE(within_edit_distance("waymo", "wyamo", 1));  // a transposition is 2
}

// Seeded property sweep: the bounded check agrees with the full distance
// for k = 0..3, on short strings over a small alphabet (so near misses are
// common) and on long near-copies edited at both ends (so neither a common
// prefix nor suffix shortens them below the stack buffer's 64 characters).
TEST(WithinEditDistance, AgreesWithEditDistance) {
  rng gen(2121);
  const std::string alphabet = "ab'19";
  const auto pick = [&] {
    return alphabet[static_cast<std::size_t>(
        gen.uniform_int(0, static_cast<std::int64_t>(alphabet.size()) - 1))];
  };
  const auto random_string = [&](std::int64_t lo, std::int64_t hi) {
    std::string s(static_cast<std::size_t>(gen.uniform_int(lo, hi)), ' ');
    for (auto& c : s) c = pick();
    return s;
  };
  const auto edit = [&](std::string s, int edits) {
    for (int e = 0; e < edits; ++e) {
      const auto at = static_cast<std::size_t>(
          gen.uniform_int(0, static_cast<std::int64_t>(s.size())));
      switch (gen.uniform_int(0, 2)) {
        case 0: s.insert(at, 1, pick()); break;
        case 1: if (at < s.size()) s.erase(at, 1); break;
        default: if (at < s.size()) s[at] = pick(); break;
      }
    }
    return s;
  };
  const auto agree = [](const std::string& a, const std::string& b) {
    const auto d = edit_distance(a, b);
    for (std::size_t k = 0; k <= 3; ++k) {
      ASSERT_EQ(within_edit_distance(a, b, k), d <= k)
          << '"' << a << "\" vs \"" << b << "\" k=" << k << " d=" << d;
    }
  };
  for (int trial = 0; trial < 3000; ++trial) {
    const auto a = random_string(0, 8);
    agree(a, trial % 2 == 0 ? random_string(0, 8) : edit(a, static_cast<int>(trial % 5)));
  }
  for (int trial = 0; trial < 300; ++trial) {
    const auto a = random_string(70, 120);
    auto b = edit(a, static_cast<int>(trial % 4));
    b.front() = b.front() == 'a' ? 'b' : 'a';
    b.back() = b.back() == 'a' ? 'b' : 'a';
    agree(a, b);
    agree(b, a);
  }
}

TEST(CharClasses, AlphaDigit) {
  EXPECT_TRUE(is_alpha('a'));
  EXPECT_TRUE(is_alpha('Z'));
  EXPECT_FALSE(is_alpha('1'));
  EXPECT_TRUE(is_digit('0'));
  EXPECT_FALSE(is_digit('x'));
  EXPECT_TRUE(is_alnum('7'));
  EXPECT_FALSE(is_alnum('-'));
}

// Property-style sweep: split/join round-trips for any separator-free parts.
class SplitJoinRoundTrip : public ::testing::TestWithParam<std::vector<std::string>> {};

TEST_P(SplitJoinRoundTrip, JoinThenSplitIsIdentity) {
  const auto& parts = GetParam();
  const auto joined = join(parts, "|");
  const auto fields = split(joined, '|');
  EXPECT_EQ(std::vector<std::string>(fields.begin(), fields.end()), parts);
}

INSTANTIATE_TEST_SUITE_P(Cases, SplitJoinRoundTrip,
                         ::testing::Values(std::vector<std::string>{"a"},
                                           std::vector<std::string>{"a", "b"},
                                           std::vector<std::string>{"", "x", ""},
                                           std::vector<std::string>{"date", "vin", "cause"},
                                           std::vector<std::string>{"", "", ""}));

}  // namespace
}  // namespace avtk::str
