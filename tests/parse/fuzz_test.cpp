// Robustness fuzzing: every format reader and the report identifier must
// never crash or throw on arbitrary byte soup — they either parse or
// decline. (Readers are allowed to throw only through documented paths;
// line readers are noexcept-by-contract in the sense of returning nullopt.)
#include <gtest/gtest.h>

#include <string>

#include "parse/accident_parser.h"
#include "parse/disengagement_parser.h"
#include "parse/formats/common.h"
#include "parse/report_header.h"
#include "fuzz_line.h"
#include "util/rng.h"

namespace avtk::parse {
namespace {

using testing::random_line;

class FuzzReaders : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzReaders, LineReadersNeverThrowOnGarbage) {
  rng gen(GetParam());
  const formats::line_reader readers[] = {
      &formats::read_benz_line,     &formats::read_bosch_line,
      &formats::read_delphi_line,   &formats::read_gm_cruise_line,
      &formats::read_nissan_line,   &formats::read_tesla_line,
      &formats::read_volkswagen_line, &formats::read_waymo_line,
      &formats::read_simple_csv_line,
  };
  for (int i = 0; i < 400; ++i) {
    const auto line = random_line(gen, 160);
    for (const auto reader : readers) {
      EXPECT_NO_THROW((void)reader(line)) << line;
    }
    EXPECT_NO_THROW((void)formats::is_structural_line(line)) << line;
  }
}

TEST_P(FuzzReaders, HeaderIdentifierNeverThrowsOnGarbage) {
  rng gen(GetParam() ^ 0xABCD);
  for (int i = 0; i < 100; ++i) {
    ocr::document doc;
    ocr::page p;
    const auto lines = gen.uniform_int(0, 12);
    for (std::int64_t l = 0; l < lines; ++l) p.lines.push_back(random_line(gen, 120));
    doc.pages.push_back(std::move(p));
    EXPECT_NO_THROW((void)identify_report(doc));
  }
}

TEST_P(FuzzReaders, DisengagementParserThrowsOnlyParseError) {
  rng gen(GetParam() ^ 0x1234);
  for (int i = 0; i < 50; ++i) {
    ocr::document doc;
    ocr::page p;
    // Sometimes plant a valid-ish header so the body parser runs.
    if (gen.bernoulli(0.5)) {
      p.lines.push_back("Nissan Autonomous Vehicle Disengagement Report");
      p.lines.push_back("DMV Release: 2016");
    }
    const auto lines = gen.uniform_int(0, 20);
    for (std::int64_t l = 0; l < lines; ++l) p.lines.push_back(random_line(gen, 140));
    doc.pages.push_back(std::move(p));
    try {
      const auto result = parse_disengagement_report(doc);
      // If it parsed, every counter must be consistent.
      EXPECT_LE(result.events.size() + result.mileage.size() + result.failed_lines +
                    result.skipped_lines,
                doc.line_count() + 8);
    } catch (const parse_error&) {
      // The documented failure mode (unidentifiable document).
    }
  }
}

TEST_P(FuzzReaders, AccidentParserThrowsOnlyParseError) {
  rng gen(GetParam() ^ 0x5678);
  for (int i = 0; i < 50; ++i) {
    ocr::document doc;
    ocr::page p;
    if (gen.bernoulli(0.5)) {
      p.lines.push_back("REPORT OF TRAFFIC COLLISION INVOLVING AN AUTONOMOUS VEHICLE (OL 316)");
      p.lines.push_back("Manufacturer: Waymo");
    }
    const auto lines = gen.uniform_int(0, 16);
    for (std::int64_t l = 0; l < lines; ++l) p.lines.push_back(random_line(gen, 140));
    doc.pages.push_back(std::move(p));
    try {
      (void)parse_accident_report(doc);
    } catch (const parse_error&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzReaders,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace avtk::parse
