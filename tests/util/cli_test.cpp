// Strict CLI numeric parsing (util/cli.h). These parsers replaced the
// driver's std::atoi/strtoull calls, which silently turned "banana" into a
// zero-vehicle simulation and truncated 64-bit seeds through int; every
// case here is a shape the loose parsers accepted wrongly.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/cli.h"

namespace avtk::cli {
namespace {

TEST(CliParse, U64AcceptsFullRange) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  // 2^63 and 2^64-1 must survive: seeds are uint64_t end to end, and the
  // old int round trip truncated anything above 2^31.
  EXPECT_EQ(parse_u64("9223372036854775808"), std::uint64_t{1} << 63);
  EXPECT_EQ(parse_u64("18446744073709551615"), std::numeric_limits<std::uint64_t>::max());
}

TEST(CliParse, U64RejectsGarbageAndOverflow) {
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("banana"));
  EXPECT_FALSE(parse_u64("-1"));
  EXPECT_FALSE(parse_u64("+1"));
  EXPECT_FALSE(parse_u64("12x"));      // atoi would answer 12
  EXPECT_FALSE(parse_u64("x12"));
  EXPECT_FALSE(parse_u64(" 12"));      // strtoull would skip the space
  EXPECT_FALSE(parse_u64("12 "));
  EXPECT_FALSE(parse_u64("1.5"));
  EXPECT_FALSE(parse_u64("0x10"));
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // 2^64: strtoull saturates
  EXPECT_FALSE(parse_u64("99999999999999999999999"));
}

TEST(CliParse, PositiveIntRejectsZeroNegativeAndOverflow) {
  EXPECT_EQ(parse_positive_int("1"), 1);
  EXPECT_EQ(parse_positive_int("2147483647"), std::numeric_limits<int>::max());
  EXPECT_FALSE(parse_positive_int("0"));
  EXPECT_FALSE(parse_positive_int("-3"));   // atoi answered -3
  EXPECT_FALSE(parse_positive_int("banana"));
  EXPECT_FALSE(parse_positive_int(""));
  EXPECT_FALSE(parse_positive_int("2147483648"));  // INT_MAX + 1
}

TEST(CliParse, UintAllowsZeroForAutoFlags) {
  EXPECT_EQ(parse_uint("0"), 0u);  // --parallel 0 / --threads 0 mean "auto"
  EXPECT_EQ(parse_uint("8"), 8u);
  EXPECT_FALSE(parse_uint("-1"));
  EXPECT_FALSE(parse_uint("eight"));
  EXPECT_FALSE(parse_uint("4294967296"));  // UINT_MAX + 1
}

TEST(CliParse, DoubleDemandsFullTokenAndFiniteness) {
  EXPECT_DOUBLE_EQ(*parse_double("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(*parse_double("1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(*parse_double("-2.5"), -2.5);
  EXPECT_FALSE(parse_double(""));
  EXPECT_FALSE(parse_double("3banana"));  // strtod answered 3
  EXPECT_FALSE(parse_double("nan"));
  EXPECT_FALSE(parse_double("inf"));
  EXPECT_FALSE(parse_double("1e400000"));  // overflows to inf
}

TEST(CliParse, FractionStaysInUnitInterval) {
  EXPECT_DOUBLE_EQ(*parse_fraction("0"), 0.0);
  EXPECT_DOUBLE_EQ(*parse_fraction("1"), 1.0);
  EXPECT_DOUBLE_EQ(*parse_fraction("0.15"), 0.15);
  EXPECT_FALSE(parse_fraction("1.01"));
  EXPECT_FALSE(parse_fraction("-0.1"));
  EXPECT_FALSE(parse_fraction("half"));
}

arg_list make_args(std::vector<std::string> tokens) { return arg_list(std::move(tokens)); }

TEST(CliArgs, ValueOfAndEqualsForm) {
  auto args = make_args({"--vehicles", "7", "--months=9", "--driverless"});
  EXPECT_EQ(args.maybe_value_of("--vehicles"), "7");
  EXPECT_EQ(args.maybe_value_of("--months"), "9");
  EXPECT_TRUE(args.has("--driverless"));
  EXPECT_EQ(args.maybe_value_of("--seed").value_or("42"), "42");
}

TEST(CliArgs, MaybeValueOfIsVerbatim) {
  auto args = make_args({"--vehicles", "--driverless", "--months"});
  // Absent flag: nullopt (no error to report).
  EXPECT_FALSE(make_args({}).maybe_value_of("--vehicles").has_value());
  // A following --flag is returned VERBATIM so the strict parser rejects
  // `--vehicles --driverless` instead of silently skipping the value.
  const auto vehicles = args.maybe_value_of("--vehicles");
  ASSERT_TRUE(vehicles.has_value());
  EXPECT_EQ(*vehicles, "--driverless");
  EXPECT_FALSE(parse_positive_int(*vehicles));
  // Flag as the last token: empty value, which every parser rejects.
  const auto months = args.maybe_value_of("--months");
  ASSERT_TRUE(months.has_value());
  EXPECT_TRUE(months->empty());
  EXPECT_FALSE(parse_positive_int(*months));
}

TEST(CliArgs, MaybeValueOfEqualsFormAndEmptyValue) {
  auto args = make_args({"--seed=123", "--quality="});
  EXPECT_EQ(args.maybe_value_of("--seed"), "123");
  const auto quality = args.maybe_value_of("--quality");
  ASSERT_TRUE(quality.has_value());
  EXPECT_TRUE(quality->empty());
}

TEST(CliArgs, TrailingValueFlagIsConsumedWithAnEmptyValue) {
  // `avtk run --csv`: the flag is known, so it must be consumed (no
  // "unknown flag") and come back present-but-empty for the caller to
  // report as a missing value.
  auto args = make_args({"--seed", "7", "--csv"});
  EXPECT_EQ(args.maybe_value_of("--seed"), "7");
  const auto csv = args.maybe_value_of("--csv");
  ASSERT_TRUE(csv.has_value());
  EXPECT_TRUE(csv->empty());
  EXPECT_FALSE(args.unknown_flag().has_value());
  EXPECT_TRUE(args.positional().empty());
}

TEST(CliArgs, ValueIfPresentForOptionalValueFlags) {
  // --parallel [N]: nullopt absent, "" bare or before another flag, else N.
  EXPECT_FALSE(make_args({}).value_if_present("--parallel").has_value());
  EXPECT_EQ(make_args({"--parallel"}).value_if_present("--parallel"), "");
  EXPECT_EQ(make_args({"--parallel", "--full"}).value_if_present("--parallel"), "");
  EXPECT_EQ(make_args({"--parallel", "4"}).value_if_present("--parallel"), "4");
}

TEST(CliArgs, PositionalSkipsConsumedFlagValues) {
  auto args = make_args({"{\"query\": \"metrics\"}", "--seed", "9"});
  (void)args.maybe_value_of("--seed");
  const auto pos = args.positional();
  ASSERT_EQ(pos.size(), 1u);
  EXPECT_EQ(pos[0], "{\"query\": \"metrics\"}");
}

TEST(CliArgs, UnknownFlagIsTheFirstUnconsumedFlag) {
  auto args = make_args({"{\"query\": \"tags\"}", "--shards", "4", "--bogus", "x", "--also"});
  (void)args.maybe_value_of("--shards");
  EXPECT_EQ(args.unknown_flag(), "--bogus");
  (void)args.maybe_value_of("--bogus");
  EXPECT_EQ(args.unknown_flag(), "--also");
  (void)args.has("--also");
  EXPECT_FALSE(args.unknown_flag().has_value());  // the JSON word is no flag
}

}  // namespace
}  // namespace avtk::cli
