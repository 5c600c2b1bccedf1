// Differential tests of Stage II's line kernels: is_structural_line,
// dates::parse_date / parse_year_month, every format reader and the whole
// report parser (with its mileage audit) must answer exactly as the
// original allocating kernels in parse_reference.h, over every delivered,
// OCR-recovered and pristine line of the corpus at each scan quality and
// over the fuzz inputs. Plus the audit's switch to the transcription when
// one digit of a mileage row is damaged, and the sort-and-merge mileage
// normalization against a copy of the original map version.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <tuple>

#include "dataset/generator.h"
#include "ocr/engine.h"
#include "parse/disengagement_parser.h"
#include "parse/formats/common.h"
#include "parse/normalizer.h"
#include "fuzz_line.h"
#include "parse_reference.h"
#include "util/rng.h"
#include "util/strings.h"

namespace avtk::parse {
namespace {

using dataset::manufacturer;

// Doubles render with every significant digit, so "equal renderings"
// means bit-equal values.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string render(const std::optional<date>& d) { return d ? d->to_string() : "-"; }
std::string render(const std::optional<year_month>& m) { return m ? m->to_string() : "-"; }

std::string render(const dataset::disengagement_record& d) {
  std::ostringstream out;
  out << "event{" << static_cast<int>(d.maker) << ' ' << d.report_year << ' '
      << render(d.event_date) << ' ' << render(d.event_month) << " [" << d.vehicle_id << "] "
      << static_cast<int>(d.mode) << " [" << d.description << "] " << static_cast<int>(d.road)
      << ' ' << static_cast<int>(d.conditions) << ' '
      << (d.reaction_time_s ? num(*d.reaction_time_s) : "-") << '}';
  return out.str();
}

std::string render(const dataset::mileage_record& m) {
  std::ostringstream out;
  out << "mileage{" << static_cast<int>(m.maker) << ' ' << m.report_year << " [" << m.vehicle_id
      << "] " << m.month.to_string() << ' ' << num(m.miles) << '}';
  return out.str();
}

std::string render(const std::optional<formats::parsed_line>& p) {
  if (!p) return "unparsed";
  std::string out = "parsed";
  if (p->event) out += ' ' + render(*p->event);
  if (p->mileage) out += ' ' + render(*p->mileage);
  return out;
}

std::string render(const disengagement_parse_result& r) {
  std::ostringstream out;
  out << static_cast<int>(r.maker) << ' ' << r.report_year << " skipped " << r.skipped_lines
      << " failed " << r.failed_lines << " manual " << r.manual_transcriptions << '\n';
  for (const auto& e : r.events) out << render(e) << '\n';
  for (const auto& m : r.mileage) out << render(m) << '\n';
  return out.str();
}

struct reader_pair {
  const char* name;
  formats::line_reader production;
  formats::line_reader reference;
};

const reader_pair k_readers[] = {
    {"benz", &formats::read_benz_line, &testing::reference_read_benz_line},
    {"bosch", &formats::read_bosch_line, &testing::reference_read_bosch_line},
    {"delphi", &formats::read_delphi_line, &testing::reference_read_delphi_line},
    {"gm_cruise", &formats::read_gm_cruise_line, &testing::reference_read_gm_cruise_line},
    {"nissan", &formats::read_nissan_line, &testing::reference_read_nissan_line},
    {"tesla", &formats::read_tesla_line, &testing::reference_read_tesla_line},
    {"volkswagen", &formats::read_volkswagen_line, &testing::reference_read_volkswagen_line},
    {"waymo", &formats::read_waymo_line, &testing::reference_read_waymo_line},
    {"simple_csv", &formats::read_simple_csv_line, &testing::reference_read_simple_csv_line},
};

// The structural test, both date parsers over the whole line and over each
// field the formats split it into, and every reader.
void expect_line_kernels_agree(std::string_view line) {
  EXPECT_EQ(formats::is_structural_line(line), testing::reference_is_structural_line(line))
      << line;
  std::vector<std::string_view> fields{line};
  std::vector<std::string_view> dash_fields(str::split_into(line, " -- ", {}));
  str::split_into(line, " -- ", dash_fields);
  fields.insert(fields.end(), dash_fields.begin(), dash_fields.end());
  for (const auto f : str::split(line, ',')) fields.push_back(f);
  for (const auto f : str::split(line, '|')) {
    fields.push_back(f);
    if (const auto colon = f.find(':'); colon != f.npos) fields.push_back(f.substr(colon + 1));
  }
  for (const auto f : fields) {
    EXPECT_EQ(render(dates::parse_date(f)), render(testing::reference_parse_date(f))) << f;
    EXPECT_EQ(render(dates::parse_year_month(f)), render(testing::reference_parse_year_month(f)))
        << f;
  }
  for (const auto& r : k_readers) {
    EXPECT_EQ(render(r.production(line)), render(r.reference(line))) << r.name << ": " << line;
  }
}

// Every line of every document, at one scan quality: as delivered, as
// the OCR engine recovers it, and pristine; then the report parser on each
// disengagement report (recovered text, pristine fallback).
void expect_corpus_agrees(ocr::scan_quality quality) {
  dataset::generator_config cfg;
  cfg.quality = quality;
  cfg.corrupt_documents = quality != ocr::scan_quality::clean;
  const auto corpus = dataset::generate_corpus(cfg);
  const ocr::mock_ocr_engine engine(ocr::lexicon::builtin());
  std::size_t lines = 0;
  std::size_t reports = 0;
  for (std::size_t d = 0; d < corpus.documents.size(); ++d) {
    const auto& delivered = corpus.documents[d];
    ocr::document recovered = delivered;
    for (auto& page : recovered.pages) {
      for (auto& line : page.lines) {
        expect_line_kernels_agree(line);
        line = engine.recognize_line(line).text;
        expect_line_kernels_agree(line);
        ++lines;
      }
    }
    for (const auto& page : corpus.pristine_documents[d].pages) {
      for (const auto& line : page.lines) expect_line_kernels_agree(line);
    }
    std::string got;
    std::string want;
    try {
      got = render(parse_disengagement_report(recovered, &corpus.pristine_documents[d]));
    } catch (const parse_error& e) {
      got = std::string("error: ") + e.what();
    }
    try {
      want = render(testing::reference_parse_disengagement_report(recovered,
                                                                  &corpus.pristine_documents[d]));
      ++reports;
    } catch (const parse_error& e) {
      want = std::string("error: ") + e.what();
    }
    EXPECT_EQ(got, want) << delivered.title;
  }
  EXPECT_GT(lines, 5000u);
  EXPECT_GT(reports, 15u);
}

// The string helper behind the reference date parser's comma stripping.
TEST(ReplaceAll, Basic) {
  EXPECT_EQ(testing::replace_all("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(testing::replace_all("aaa", "aa", "b"), "ba");  // non-overlapping, left to right
}

TEST(ReplaceAll, NoOccurrences) { EXPECT_EQ(testing::replace_all("abc", "x", "y"), "abc"); }

TEST(ReplaceAll, GrowingReplacement) {
  EXPECT_EQ(testing::replace_all("a,b", ",", " -- "), "a -- b");
}

TEST(ParseKernels, AgreeWithReferenceOnCleanCorpus) {
  expect_corpus_agrees(ocr::scan_quality::clean);
}
TEST(ParseKernels, AgreeWithReferenceOnGoodCorpus) {
  expect_corpus_agrees(ocr::scan_quality::good);
}
TEST(ParseKernels, AgreeWithReferenceOnFairCorpus) {
  expect_corpus_agrees(ocr::scan_quality::fair);
}
TEST(ParseKernels, AgreeWithReferenceOnPoorCorpus) {
  expect_corpus_agrees(ocr::scan_quality::poor);
}

// The fuzz suite's inputs: its generator and seeds.
TEST(ParseKernels, AgreeWithReferenceOnFuzzInputs) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u}) {
    rng gen(seed);
    for (int i = 0; i < 400; ++i) expect_line_kernels_agree(testing::random_line(gen, 160));
  }
}

// Hand-made edge cases: quoting the CSV view scanner must unescape, more
// parts than the fixed field arrays hold, damaged keys and markers, and
// separators of every kind at the ends.
TEST(ParseKernels, AgreeWithReferenceOnEdgeCases) {
  for (const char* line : {
           R"(1/4/16,"Leaf ""1""",Auto,"0.5-1.2 s","cause, with comma")",
           R"("1/4/16"x,V1,Auto,0.9,cause)",
           R"(1/4/16,V1,Auto,0.9,"unterminated)",
           R"(V1,"2016-05","1,032.5")",
           R"("",,"",,)",
           "a,b,c,d,e,f,g,h,i,j,k",
           "Date: 1/12/15 | Vehicle: D1 | Cause: x | Cause: y | A: 1 | B: 2 | C: 3 | D: 4 | E: 5",
           "Mileage: DEL-01 | Oct 2014 | 1032.5",
           "MILEAGE: DEL-01 | October 2014 | 1,032.5",
           "Mileage: | Oct 2014 | 1032.5",
           "11/12/14 -- 18:24:03 -- Takeovr-Reqest -- watchdog error -- 1.2 s",
           "11/12/14 -- 18:24:03 -- TAKEOVER REQUEST FOR A VERY LONG MARKER -- x -- 1.2 s",
           "1/4/16 -- 1:25 PM -- Leaf 1 -- cause -- City Street -- Sunny/Dry -- Auto -- 1.10 s",
           "1/4/16 -- 1:25 PM -- Leaf 1 -- cause -- City Street -- Sunny -- Auto -- 1.10 s -- x",
           "May-16 -- Highway -- Safe Operation -- cause -- 0.70 s",
           "Leaf 1 -- May 2016 -- 1,116.6",
           "May-16 -- May 2016 -- 12",
           "January 4, 2016", "Jan,4,,2016", "Sept 2016", "2016-02-30", "12/31/99",
           " -- ", "|", ",", "", "   ", "DMV Release: 2016", "Dmw Release 2017",
           "Reportng Period: 2015", "VIN , Month, Miles", "vehicle", "Disengagment Summry",
           "SECTION: PLANNED TESTS", "Reaction Time (s)",
       }) {
    expect_line_kernels_agree(line);
  }
}

// ------------------------------------------------------- mileage audit

ocr::document waymo_report(const std::vector<std::string>& body) {
  ocr::document doc;
  doc.title = "Waymo Disengagement Report 2016";
  ocr::page p;
  p.lines = {"Waymo Autonomous Vehicle Disengagement Report", "DMV Release: 2016"};
  p.lines.insert(p.lines.end(), body.begin(), body.end());
  doc.pages.push_back(std::move(p));
  return doc;
}

const std::vector<std::string> k_waymo_body = {
    "SECTION: MILEAGE",
    "Car 1 -- May 2016 -- 1032.5",
    "Car 2 -- May 2016 -- 210.0",
    "SECTION: DISENGAGEMENTS",
    "May-16 -- Highway -- Safe Operation -- watchdog error -- 0.70 s",
    "Car 1 -- Jun 2016 -- 88.25",
};

TEST(MileageAudit, OneDamagedDigitSwitchesToTranscription) {
  const auto pristine = waymo_report(k_waymo_body);
  auto damaged_body = k_waymo_body;
  damaged_body[1] = "Car 1 -- May 2016 -- 1132.5";  // the recovered row still parses
  const auto recovered = waymo_report(damaged_body);

  const auto result = parse_disengagement_report(recovered, &pristine);
  ASSERT_EQ(result.mileage.size(), 3u);
  EXPECT_EQ(result.mileage[0].miles, 1032.5);
  EXPECT_EQ(result.manual_transcriptions, 3u);  // the whole table, re-read
  EXPECT_EQ(render(result), render(testing::reference_parse_disengagement_report(recovered,
                                                                                  &pristine)));
}

TEST(MileageAudit, DocumentEqualToPristineMatchesReference) {
  const auto pristine = waymo_report(k_waymo_body);
  const auto result = parse_disengagement_report(pristine, &pristine);
  EXPECT_EQ(result.mileage.size(), 3u);
  EXPECT_EQ(result.events.size(), 1u);
  EXPECT_EQ(result.manual_transcriptions, 0u);
  EXPECT_EQ(render(result),
            render(testing::reference_parse_disengagement_report(pristine, &pristine)));
  EXPECT_EQ(render(result), render(testing::reference_parse_disengagement_report(pristine)));
}

// Lines the recovered copy cannot read, whose pristine line reads as a
// mileage row or an event, or is structural, mixed with equal lines. The
// last pristine line is structural ("DMV ...") yet reads as a mileage row:
// the fallback takes the row, the audit must not.
TEST(MileageAudit, FallbackReadingsMatchReference) {
  auto pristine_body = k_waymo_body;
  pristine_body.push_back("DMV -- May 2016 -- 12");
  auto damaged_body = pristine_body;
  damaged_body[0] = "S#CT%ON: M!LE@GE 7";                  // structural only when pristine
  damaged_body[2] = "Car 2 -- Mqy 2O16 -- 21O.0";          // unreadable mileage row
  damaged_body[4] = "Mqy-16 -- Highway -- Safe -- x -- y -- z";  // unreadable event
  damaged_body[6] = "DXYZ -- Mqy 2016 -- 12";
  const auto pristine = waymo_report(pristine_body);
  const auto recovered = waymo_report(damaged_body);
  const auto result = parse_disengagement_report(recovered, &pristine);
  EXPECT_EQ(result.failed_lines, 0u);
  EXPECT_EQ(result.mileage.size(), 3u);  // the audit's table, without the "DMV" row
  EXPECT_EQ(render(result), render(testing::reference_parse_disengagement_report(recovered,
                                                                                  &pristine)));
}

// ------------------------------------------------- mileage normalization

// The original normalize_mileage: a map keyed by (maker, vehicle id,
// month index), duplicates summed into the first record in corpus order.
normalization_stats map_normalize_mileage(std::vector<dataset::mileage_record>& records) {
  normalization_stats stats;
  std::map<std::tuple<manufacturer, std::string, std::int64_t>, dataset::mileage_record> merged;
  for (auto& r : records) {
    if (!(r.miles > 0)) {
      ++stats.records_dropped;
      continue;
    }
    const auto key = std::make_tuple(r.maker, r.vehicle_id, r.month.index());
    const auto it = merged.find(key);
    if (it == merged.end()) {
      merged.emplace(key, std::move(r));
    } else {
      it->second.miles += r.miles;
    }
  }
  records.clear();
  for (auto& [key, r] : merged) records.push_back(std::move(r));
  return stats;
}

TEST(NormalizeMileage, SortAndMergeMatchesMapVersion) {
  constexpr const char* k_ids[] = {"car 1", "Car 1", "CAR 1",
                                   "car 2", "",      "a-very-long-vehicle-id-9"};
  constexpr manufacturer k_makers[] = {manufacturer::waymo, manufacturer::nissan,
                                       manufacturer::bosch};
  rng gen(24);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<dataset::mileage_record> records;
    const auto n = gen.uniform_int(0, 60);
    for (std::int64_t i = 0; i < n; ++i) {
      dataset::mileage_record m;
      m.maker = k_makers[gen.uniform_int(0, 2)];
      m.report_year = static_cast<int>(2016 + gen.uniform_int(0, 1));
      m.vehicle_id = k_ids[gen.uniform_int(0, 5)];
      m.month = year_month::from_index(2015 * 12 + gen.uniform_int(0, 5));
      // Non-positive and fractional miles; duplicates whose sums depend on
      // the order of addition.
      switch (gen.uniform_int(0, 5)) {
        case 0: m.miles = 0.0; break;
        case 1: m.miles = -gen.uniform(0.0, 10.0); break;
        case 2: m.miles = std::numeric_limits<double>::quiet_NaN(); break;
        default: m.miles = gen.uniform(0.0, 1000.0) * (gen.bernoulli(0.5) ? 1e-9 : 1.0); break;
      }
      records.push_back(std::move(m));
    }
    auto expected = records;
    const auto expected_stats = map_normalize_mileage(expected);
    const auto stats = normalize_mileage(records);
    EXPECT_EQ(stats.records_dropped, expected_stats.records_dropped);
    ASSERT_EQ(records.size(), expected.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(render(records[i]), render(expected[i])) << trial << " row " << i;
    }
  }
}

}  // namespace
}  // namespace avtk::parse
