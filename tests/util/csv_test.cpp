#include "util/csv.h"

#include <gtest/gtest.h>

#include "csv_reference.h"
#include "util/errors.h"

namespace avtk::csv {
namespace {

TEST(ParseLine, SimpleFields) {
  const auto r = parse_line("a,b,c");
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], "a");
  EXPECT_EQ(r[2], "c");
}

TEST(ParseLine, EmptyFields) {
  const auto r = parse_line(",,");
  ASSERT_EQ(r.size(), 3u);
  for (const auto& f : r) EXPECT_TRUE(f.empty());
}

TEST(ParseLine, QuotedFieldWithSeparator) {
  const auto r = parse_line(R"(date,"a, b",x)");
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[1], "a, b");
}

TEST(ParseLine, EscapedQuotes) {
  const auto r = parse_line(R"("he said ""stop""")");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], R"(he said "stop")");
}

TEST(ParseLine, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_line(R"("unterminated)"), parse_error);
}

TEST(ParseLine, CustomSeparator) {
  const auto r = parse_line("a|b|c", '|');
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[1], "b");
}

TEST(Parse, MultipleRows) {
  const auto rows = parse("a,b\nc,d\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "b");
  EXPECT_EQ(rows[1][0], "c");
}

TEST(Parse, CrLfLineEndings) {
  const auto rows = parse("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "d");
}

TEST(Parse, QuotedFieldWithEmbeddedNewline) {
  const auto rows = parse("a,\"line1\nline2\",c\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], "line1\nline2");
}

TEST(FormatLine, QuotesWhenNeeded) {
  EXPECT_EQ(format_line({"a", "b,c", "d\"e"}), "a,\"b,c\",\"d\"\"e\"");
  EXPECT_EQ(format_line({"plain", "fields"}), "plain,fields");
}

TEST(FormatLine, NewlineForcesQuoting) {
  EXPECT_EQ(format_line({"a\nb"}), "\"a\nb\"");
}

TEST(RoundTrip, FormatThenParse) {
  const row original = {"1/4/16", "Leaf #1", "module froze, restarted", "City \"A\""};
  EXPECT_EQ(parse_line(format_line(original)), original);
}

TEST(RoundTrip, MultiRow) {
  const std::vector<row> rows = {{"h1", "h2"}, {"a,b", "c\nd"}, {"", "x"}};
  EXPECT_EQ(parse(format(rows)), rows);
}

TEST(Table, FromTextHeaderIndexing) {
  const auto t = table::from_text("Date,Vehicle,Miles\n1/1/16,AV1,10.5\n");
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.column("Vehicle"), 1u);
  EXPECT_EQ(t.at(0, "Miles"), "10.5");
}

TEST(Table, ShortRowsPadded) {
  const auto t = table::from_text("a,b,c\n1,2\n");
  EXPECT_EQ(t.at(0, "c"), "");
}

TEST(Table, LongRowsThrow) {
  EXPECT_THROW(table::from_text("a,b\n1,2,3\n"), parse_error);
}

TEST(Table, MissingColumnThrows) {
  const auto t = table::from_text("a,b\n1,2\n");
  EXPECT_THROW(t.column("missing"), not_found_error);
  EXPECT_FALSE(t.has_column("missing"));
  EXPECT_TRUE(t.has_column("a"));
}

TEST(Table, RowIndexOutOfRangeThrows) {
  const auto t = table::from_text("a\n1\n");
  EXPECT_THROW(t.row_at(1), logic_error);
}

TEST(Table, EmptyText) {
  const auto t = table::from_text("");
  EXPECT_EQ(t.row_count(), 0u);
}

// RFC 4180 edge cases that real DMV descriptions hit: a quote in the
// middle of an unquoted field, CRLF inside a quoted field, an
// unterminated quote at end-of-input, and a trailing separator.
TEST(Rfc4180, QuoteAfterTextIsLiteral) {
  // 'aaa"bbb' is outside RFC 4180; tolerant readers keep the quote.
  const auto r = parse_line(R"(ab"cd,x)");
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], R"(ab"cd)");
  // And the writer re-quotes it so the round trip is exact.
  EXPECT_EQ(parse_line(format_line(r)), r);
}

TEST(Rfc4180, CrLfInsideQuotedFieldIsPreserved) {
  const auto rows = parse("a,\"line1\r\nline2\",c\r\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], "line1\r\nline2");
  EXPECT_EQ(parse(format(rows)), rows);
}

TEST(Rfc4180, UnterminatedQuoteThrowsInMultiRowParse) {
  EXPECT_THROW(parse("a,b\nc,\"broken\n"), parse_error);
  EXPECT_THROW(parse("\""), parse_error);
}

TEST(Rfc4180, TrailingSeparatorYieldsEmptyFinalField) {
  const auto r = parse_line("a,b,");
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[2], "");
  const auto rows = parse("a,b,\nc,d,\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].size(), 3u);
  EXPECT_EQ(rows[1][2], "");
}

TEST(Rfc4180, QuotedFieldFollowedBySeparator) {
  const auto r = parse_line(R"("a","b",c)");
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], "a");
  EXPECT_EQ(r[1], "b");
  EXPECT_EQ(r[2], "c");
}

// Parameterized: round-trip across tricky field contents.
class FieldRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(FieldRoundTrip, SurvivesFormatParse) {
  const row r = {GetParam()};
  EXPECT_EQ(parse_line(format_line(r)), r);
}

INSTANTIATE_TEST_SUITE_P(TrickyFields, FieldRoundTrip,
                         ::testing::Values("", "plain", "with,comma", "with\"quote",
                                           "\"fully quoted\"", "trailing space ",
                                           "line\nbreak... wait",  // no newline in parse_line
                                           "comma, quote\" both", "mid\"quote text",
                                           "ends with quote\"", "\"", "\"\"",
                                           ",leading comma", "a,\"b\",c"));

}  // namespace
}  // namespace avtk::csv
