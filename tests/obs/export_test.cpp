// JSON model round-trips and the trace/metrics exporter schemas.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "span_totals.h"

namespace avtk::obs {
namespace {

TEST(Json, DumpAndParseRoundTripsEveryType) {
  const json::value doc(json::object{
      {"null", json::value(nullptr)},
      {"flag", json::value(true)},
      {"count", json::value(42)},
      {"pi", json::value(3.25)},
      {"big", json::value(std::uint64_t{1234567890123})},
      {"text", json::value("line1\nline2\t\"quoted\" \\slash")},
      {"list", json::value(json::array{json::value(1), json::value("two"), json::value(false)})},
      {"nested", json::value(json::object{{"empty_list", json::value(json::array{})},
                                          {"empty_obj", json::value(json::object{})}})},
  });

  for (const int indent : {0, 2}) {
    const auto text = doc.dump(indent);
    const auto parsed = json::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_TRUE(parsed->is_object());
    EXPECT_TRUE(parsed->find("null")->is_null());
    EXPECT_TRUE(parsed->find("flag")->as_bool());
    EXPECT_DOUBLE_EQ(parsed->find("count")->as_number(), 42);
    EXPECT_DOUBLE_EQ(parsed->find("pi")->as_number(), 3.25);
    EXPECT_DOUBLE_EQ(parsed->find("big")->as_number(), 1234567890123.0);
    EXPECT_EQ(parsed->find("text")->as_string(), "line1\nline2\t\"quoted\" \\slash");
    ASSERT_EQ(parsed->find("list")->as_array().size(), 3u);
    EXPECT_EQ(parsed->find("list")->as_array()[1].as_string(), "two");
    EXPECT_TRUE(parsed->find("nested")->find("empty_list")->as_array().empty());
    EXPECT_TRUE(parsed->find("nested")->find("empty_obj")->as_object().empty());
    EXPECT_EQ(parsed->find("missing"), nullptr);
  }
}

TEST(Json, IntegersPrintWithoutDecimalPoint) {
  EXPECT_EQ(json::value(5328).dump(), "5328");
  EXPECT_EQ(json::value(-7).dump(), "-7");
  EXPECT_EQ(json::value(0.5).dump(), "0.5");
}

// The emitter's number text against printf, the definition it follows:
// "%.0f" for integers below 2^53 in magnitude, "%.17g" for everything else
// finite, "null" for NaN and infinities.
TEST(Json, NumberTextMatchesPrintf) {
  const auto printf_text = [](double d) -> std::string {
    if (!std::isfinite(d)) return "null";
    char buf[64];
    const bool integral = d == std::floor(d) && std::fabs(d) < 9.007199254740992e15;
    std::snprintf(buf, sizeof(buf), integral ? "%.0f" : "%.17g", d);
    return buf;
  };
  const auto check = [&](double d) {
    ASSERT_EQ(json::value(d).dump(), printf_text(d)) << std::hexfloat << d;
  };

  const double two53 = 9007199254740992.0;
  using limits = std::numeric_limits<double>;
  for (const double d :
       {0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1.0 / 3.0, 2.0 / 3.0, 123456789.12345678,
        0.12345678901234567, 9.8765432109876543e-5, two53 - 1, two53, two53 + 2, -(two53 - 1),
        -two53, -(two53 + 2), 1e308, -1e308, limits::max(), limits::lowest(), limits::min(),
        -limits::min(), limits::denorm_min(), -limits::denorm_min(), limits::min() / 3,
        limits::infinity(), -limits::infinity(), limits::quiet_NaN(), 1e15, 1e16, 1e17, 1e21,
        1e-7, 5e-324, 2.2250738585072009e-308}) {
    check(d);
  }

  std::mt19937_64 rng(20180625);
  for (int i = 0; i < 50000; ++i) {
    // Every bit pattern: subnormals, huge magnitudes, NaNs, both signs.
    const std::uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    check(d);
    // Integers on both sides of +-2^53.
    const auto offset = static_cast<double>(static_cast<std::int64_t>(rng() % 2001) - 1000);
    check(two53 + offset);
    check(-two53 + offset);
    // 17-significant-digit fractions of the magnitudes the payloads carry.
    const double scale = std::pow(10.0, static_cast<double>(rng() % 13) - 6);
    check(static_cast<double>(rng() % 100000000000000000ull) * 1e-17 * scale);
  }
}

TEST(Json, ParseRejectsMalformedDocuments) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "\"unterminated",
                          "1 2", "{'a':1}", "[1] trailing", "\"bad\\q\""}) {
    EXPECT_FALSE(json::parse(bad).has_value()) << bad;
  }
}

TEST(Json, ParseBoundsNestingDepth) {
  const auto nested = [](int depth, char open, char close) {
    return std::string(static_cast<std::size_t>(depth), open) +
           std::string(static_cast<std::size_t>(depth), close);
  };
  EXPECT_TRUE(json::parse(nested(json::k_max_depth, '[', ']')).has_value());
  EXPECT_FALSE(json::parse(nested(json::k_max_depth + 1, '[', ']')).has_value());
  // Objects count toward the same bound as arrays.
  std::string mixed;
  for (int i = 0; i < json::k_max_depth; ++i) mixed += i % 2 == 0 ? "{\"k\":" : "[";
  mixed += "0";
  for (int i = json::k_max_depth - 1; i >= 0; --i) mixed += i % 2 == 0 ? "}" : "]";
  EXPECT_TRUE(json::parse(mixed).has_value());
  EXPECT_FALSE(json::parse("[" + mixed + "]").has_value());
  // A million unclosed brackets fail fast instead of overflowing the stack.
  EXPECT_FALSE(json::parse(std::string(1'000'000, '[')).has_value());
}

TEST(Json, ParseAcceptsEscapesAndUnicode) {
  const auto v = json::parse(R"("aA\né")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "aA\n\xc3\xa9");
}

void populate_trace(trace& t) {
  const auto root = t.begin_span("pipeline");
  const auto scan = t.begin_span("scan", root);
  for (int i = 0; i < 3; ++i) {
    const auto ocr = t.begin_span("ocr", scan);
    t.end_span(ocr);
    const auto parse = t.begin_span("parse", scan);
    t.end_span(parse);
  }
  t.end_span(scan);
  const auto classify = t.begin_span("classify", root);
  t.end_span(classify);
  t.end_span(root);
}

TEST(Export, TraceJsonMatchesSchemaAndRoundTrips) {
  trace t;
  populate_trace(t);
  const auto parsed = json::parse(trace_to_json(t));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("schema")->as_string(), "avtk.trace.v1");
  EXPECT_GT(parsed->find("total_ns")->as_number(), 0);

  const auto recorded = t.spans();
  const auto& spans = parsed->find("spans")->as_array();
  ASSERT_EQ(spans.size(), recorded.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = recorded[i];
    EXPECT_DOUBLE_EQ(spans[i].find("id")->as_number(), static_cast<double>(s.id));
    EXPECT_DOUBLE_EQ(spans[i].find("parent")->as_number(), static_cast<double>(s.parent));
    EXPECT_EQ(spans[i].find("name")->as_string(), s.name);
    EXPECT_DOUBLE_EQ(spans[i].find("start_ns")->as_number(), static_cast<double>(s.start_ns));
    EXPECT_DOUBLE_EQ(spans[i].find("duration_ns")->as_number(),
                     static_cast<double>(s.duration_ns));
  }

  const auto* totals = parsed->find("stage_totals_ns");
  ASSERT_NE(totals, nullptr);
  EXPECT_DOUBLE_EQ(totals->find("ocr")->as_number(),
                   static_cast<double>(total_duration_ns(t.spans(), "ocr")));
  EXPECT_DOUBLE_EQ(totals->find("classify")->as_number(),
                   static_cast<double>(total_duration_ns(t.spans(), "classify")));
}

TEST(Export, StageTotalsSkipOpenSpansAndKeepOrder) {
  trace t;
  t.begin_span("open");  // never ended: excluded from totals
  const auto a = t.begin_span("a");
  t.end_span(a);
  const auto totals = stage_totals_ns(t.spans());
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[0].first, "a");
}

TEST(Export, MetricsJsonMatchesSchemaAndRoundTrips) {
  metric_registry reg;
  reg.get_counter("ocr.lines").add(8072);
  reg.set_gauge("confidence", 0.79);
  const auto parsed = json::parse(snapshot_to_json(reg.snapshot()));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("schema")->as_string(), "avtk.metrics.v1");
  EXPECT_DOUBLE_EQ(parsed->find("counters")->find("ocr.lines")->as_number(), 8072);
  EXPECT_DOUBLE_EQ(parsed->find("gauges")->find("confidence")->as_number(), 0.79);
}

TEST(Export, WriteTextFileCreatesParentDirectories) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "avtk_obs_export_test";
  fs::remove_all(dir);
  const auto path = dir / "nested" / "out.json";
  ASSERT_TRUE(write_text_file(path.string(), "{}\n"));
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "{}\n");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace avtk::obs
