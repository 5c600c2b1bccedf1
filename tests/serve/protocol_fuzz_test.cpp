// Protocol fuzzing: the one-pass request decoder (parse_request) against
// its DOM oracle (testing::parse_request: one obs::json::parse, then a walk
// over the value tree), and the serve loop's one-answer-per-request
// contract, over a seeded corpus of request lines. The corpus starts from
// the serve smoke batch's queries and filings and the 45 serve_hot lines,
// then adds every truncation, byte flips, byte soup, nesting bombs around
// the depth limit, edge-case numbers in every knob and in the id, repeated
// members, escaped keys, bad UTF-8, lone surrogates and an oversized filing.
//
// For every line both decoders must agree on the id echo, the body and the
// canonical form, and the response bytes handle_request_line writes must
// equal the ones the oracle's parse yields on an engine fed the same lines.
// Through run_serve_loop the corpus must come back as exactly one response
// per request, in order, equal to the serial answers, each error carrying a
// taxonomy code, and the loop must never abort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "../parse/fuzz_line.h"
#include "ingest_test_util.h"
#include "obs/json.h"
#include "serve/protocol.h"
#include "serve_reference.h"
#include "serve_test_util.h"
#include "util/errors.h"
#include "util/rng.h"

namespace avtk::serve {
namespace {

namespace json = obs::json;

// ---- the corpus ------------------------------------------------------------

// make_serve_batch.py's scripted queries, malformed ones included.
const char* const k_smoke_queries[] = {
    R"({"query": "metrics"})",
    R"({"query": "tags"})",
    R"({"query": "categories"})",
    R"({"query": "modality"})",
    R"({"query": "trend"})",
    R"({"query": "fit"})",
    R"({"query": "compare"})",
    R"({"query": "mcf"})",
    R"({"query": "nhpp"})",
    R"({"query": "metrics", "maker": "waymo"})",
    R"({"query": "tags", "maker": "waymo"})",
    R"({"query": "fit", "min_samples": 10})",
    R"({"query": "trend", "maker": "delphi"})",
    R"({"query": "categories", "maker": "delphi"})",
    R"({"query": "mcf", "maker": "waymo", "replicates": 150, "seed": 7})",
    R"({"query": "nhpp", "horizon_miles": 50000})",
    R"({"query": "metrics", "maker": "waymo", "year": 2016})",
    R"({"query": "tags", "year": 2016})",
    R"({"query": "tags", "tag": "planner"})",
    R"({"query": "categories", "category": "ml_design"})",
    R"({"query": "modality", "tag": "planner", "category": "ml_design"})",
    R"({"query": "warp_drive"})",
    R"({"query": "metrics", "maker": "martian_motors"})",
    R"({"query": "fit", "min_samples": 0})",
    R"({"query": "nhpp", "horizon_miles": -1})",
};

// The smoke queries with a leading id, as the smoke batch numbers them.
std::vector<std::string> smoke_query_lines() {
  std::vector<std::string> out;
  int id = 0;
  for (const std::string_view q : k_smoke_queries) {
    out.push_back(R"({"id": )" + std::to_string(id++) + ", " + std::string(q.substr(1)));
  }
  return out;
}

std::string filing(const ocr::document& doc, const ocr::document* pristine, int id) {
  json::object spec;
  spec.emplace_back("text", doc.full_text());
  spec.emplace_back("title", doc.title);
  if (pristine != nullptr) spec.emplace_back("pristine", pristine->full_text());
  json::object req;
  req.emplace_back("ingest", json::value(std::move(spec)));
  req.emplace_back("id", id);
  return json::value(std::move(req)).dump();
}

// The document's first `n` lines (all of them when n is 0).
ocr::document first_lines(ocr::document doc, std::size_t n) {
  if (n == 0) return doc;
  for (auto& page : doc.pages) {
    page.lines.resize(std::min(page.lines.size(), n));
    n -= page.lines.size();
  }
  return doc;
}

// The smoke batch's filings, each document cut to its first `max_lines`
// lines (0: whole): a clean report with its pristine twin, the first
// corrupted one with its twin, and a bare-text filing.
std::vector<std::string> filing_lines(std::size_t max_lines = 0) {
  const auto& c = testing::corpus();
  const auto& clean = testing::first_report(/*accident=*/false);
  std::size_t at = 0;
  while (&c.documents[at] != &clean) ++at;
  const auto injected = testing::inject_corpus();
  const auto fault = injected.report.faults.front().index;
  const auto cut = [&](const ocr::document& doc) { return first_lines(doc, max_lines); };
  const auto clean_twin = cut(c.pristine_documents[at]);
  const auto fault_twin = cut(injected.pristine[fault]);
  json::object bare;
  bare.emplace_back("id", "bare");
  bare.emplace_back("ingest", cut(testing::first_report(/*accident=*/true)).full_text());
  return {filing(cut(clean), &clean_twin, 900), filing(cut(injected.docs[fault]), &fault_twin, 901),
          json::value(std::move(bare)).dump()};
}

// Lines a JSON parser has to get exactly right: repeated members, escapes
// in keys and values, surrogates, raw control and non-UTF-8 bytes, and the
// literal and number corners of obs::json's grammar.
std::vector<std::string> edge_lines() {
  std::vector<std::string> out = {
      // Repeated members: the first id and ingest win, a query or knob
      // takes its last value, the first bad member names the error.
      R"({"query": "tags", "query": "metrics"})",
      R"({"id": 1, "id": 2, "query": "tags"})",
      R"({"id": true, "id": 2, "query": "tags"})",
      R"({"id": "a", "query": "tags", "id": "b"})",
      R"({"query": "tags", "maker": "waymo", "maker": "delphi"})",
      R"({"query": "tags", "maker": "waymo", "maker": "acme"})",
      R"({"query": "tags", "maker": "acme", "year": 1800})",
      R"({"query": "tags", "year": 1800, "maker": "acme"})",
      R"({"query": "fit", "min_samples": 3, "min_samples": 40})",
      R"({"query": "tags", "bogus": 1, "query": "nope"})",
      R"({"query": "nope", "bogus": 1})",
      R"({"ingest": "A", "ingest": 5, "id": 1})",
      R"({"ingest": 5, "ingest": "A", "id": 1})",
      R"({"ingest": {"text": "x", "text": 5}})",
      R"({"ingest": {"text": 5, "text": "x"}})",
      R"({"ingest": {"text": "x", "title": "a", "title": 5}})",
      R"({"ingest": {"text": "x", "bogus": 1, "other": 2}})",
      R"({"ingest": {"bogus": 1, "title": 5}})",
      R"({"ingest": {"title": 5, "pristine": 5}})",
      R"({"ingest": {"text": "x", "title": 5, "pristine": 5}})",
      R"({"ingest": {"text": "x", "pristine": "y", "title": "t"}, "id": 4})",
      R"({"ingest": {}, "id": 4})",
      R"({"ingest": [], "id": 4})",
      R"({"ingest": null})",
      R"({"query": "tags", "ingest": {"text": "x"}, "bogus": [1, {"a": 2}]})",
      R"({"query": "tags", "id": {"nested": 1}})",
      R"({"query": "tags", "id": [1]})",
      R"({"query": "tags", "id": null})",
      R"({"query": "tags", "id": ""})",
      // Escaped keys and values.
      R"({"\u0071uery": "tags"})",
      R"({"qu\u0065ry": "t\u0061gs", "m\u0061ker": "w\u0061ymo"})",
      R"({"query": "tags", "\u0069d": "x"})",
      R"({"query": "tags", "id": "a\"b\\c\/d\b\f\n\r\t"})",
      R"({"query": "tags", "id": "\u0000\u001f\u007f\u0080\u07ff\u0800\uffff"})",
      R"({"query": "tags", "id": "\uD83D\uDE00"})",
      R"({"query": "tags", "id": "\ud800"})",
      R"({"query": "tags", "id": "\udc00x"})",
      R"({"query": "t\ud800ags"})",
      R"({"query": "tags", "bo\u0067us": 1})",
      R"({"query": "tags", "\u0000": 1})",
      R"({"query": "tags", "maker": " waymo "})",
      R"({"query": "tags", "maker": "WAYMO"})",
      R"({"query": "categories", "category": "ML\/Design"})",
      R"({"ingest": {"t\u0065xt": "line one\nline two\n", "title": "T\u00e9st"}, "id": "e"})",
      R"({"ingest": "a\u0000b\r\nc", "id": 3})",
      // Bad escapes.
      R"({"query": "tags", "id": "\x"})",
      R"({"query": "tags", "id": "\u12"})",
      R"({"query": "tags", "id": "\u12G4"})",
      R"({"query": "tags", "id": "\)",
      R"({"query": "tags", "id": "\u)",
      // Literals and number corners.
      R"({"query": "tags", "id": +5})",
      R"({"query": "tags", "id": .5})",
      R"({"query": "tags", "id": 5.})",
      R"({"query": "tags", "id": e5})",
      R"({"query": "tags", "id": -e5})",
      R"({"query": "tags", "id": -})",
      R"({"query": "tags", "id": .})",
      R"({"query": "tags", "id": 1e})",
      R"({"query": "tags", "id": 1e+})",
      R"({"query": "tags", "id": 0x10})",
      R"({"query": "tags", "id": 00})",
      R"({"query": "tags", "id": 1.5.3})",
      R"({"query": "tags", "id": truex})",
      R"({"query": "tags", "id": nul})",
      R"({"query": "tags", "id": tru})",
      R"({"query": "tags", "id": NaN})",
      R"({"query": "tags", "id": Infinity})",
      R"({"query": "tags", "x": [true, false, null, [], {}, "s", -1.5e-3]})",
      // Whitespace and framing.
      " \t\r{\"query\":\"tags\"}\r\t ",
      "{\n\"query\"\n:\n\"tags\"\n}",
      R"({"query": "tags"} {"query": "tags"})",
      R"({"query": "tags"},)",
      R"({"query": "tags",})",
      R"({,"query": "tags"})",
      R"({"query" "tags"})",
      R"({"query": "tags" "id": 1})",
      R"({query: "tags"})",
      R"({'query': 'tags'})",
      "{}",
      "[]",
      "null",
      "7",
      "\"tags\"",
      "",
      "   ",
      "#",
      "{",
      "}",
      "{\"",
      "\xEF\xBB\xBF{\"query\": \"tags\"}",
  };
  // Raw bytes inside and outside strings: control characters, bad UTF-8.
  for (const std::string& bytes :
       {std::string("\x01", 1), std::string("\x1f"), std::string("\x7f"), std::string("\xff"),
        std::string("\xc0\x80"), std::string("\xe2\x82"), std::string("\xed\xa0\x80"),
        std::string("\0", 1), std::string("\t")}) {
    out.push_back(R"({"query": "tags", "id": ")" + bytes + R"("})");
    out.push_back(R"({"query": "t)" + bytes + R"(ags"})");
    out.push_back(R"({"query": "tags", ")" + bytes + R"(": 1})");
    out.push_back(R"({"query": "tags")" + bytes + R"(})");
    out.push_back(R"({"ingest": {"text": "x)" + bytes + R"(y", "title": ")" + bytes + R"("}})");
  }
  return out;
}

// Numbers the knobs and the id must read as obs::json reads them: huge,
// tiny, negative, fractional, exponent forms, 2^53 and 2^64 neighbours.
const char* const k_numbers[] = {
    "0", "-0", "1", "-1", "5.0", "1e2", "1E+2", "1e-5", "2.5", "-2.5", "7", "42", "99",
    "100", "101", "150", "200", "1990", "2016", "2016.0", "2016.5", "2100", "2101",
    "10000", "10001", "50000", "1e12", "1000000000001", "9007199254740992",
    "9007199254740993", "123456789012345", "1234567890123456", "-123456789012345",
    "18446744073709549568", "18446744073709551615", "18446744073709551616", "1e19", "1e20",
    "1e30", "-1e30", "1e300", "-1e300", "1e308", "1e309", "-1e999", "1e-400", "4.9e-324",
    "0.1", "-0.0", "+1", ".5", "5.", "e5", "01", "1.7976931348623157e308",
    "100000000000000000000000000000000000000000000000000000000000000000000000000000000000"};

// Every number in every knob and in the id. The knobs ride a cheap "tags"
// query (the knob is still parsed and range-checked; only its own kind
// prints it), and a few exponent and boundary forms also ride the kind
// that prints them in its canonical form.
std::vector<std::string> number_lines() {
  std::vector<std::string> out;
  for (const char* knob : {"year", "min_samples", "replicates", "seed", "horizon_miles", "id"}) {
    for (const char* n : k_numbers) {
      out.push_back(std::string(R"({"query": "tags", ")") + knob + "\": " + n + "}");
    }
  }
  const std::pair<const char*, const char*> printed[] = {
      {"min_samples", "fit"}, {"seed", "mcf"}, {"horizon_miles", "nhpp"}};
  for (const auto& [knob, kind] : printed) {
    for (const char* n : {"1e2", "1E+2", "5.0", "-0", "18446744073709549568", "1e19", "1e12"}) {
      out.push_back(std::string(R"({"query": ")") + kind + R"(", ")" + knob + "\": " + n + "}");
    }
  }
  for (const char* n : {"1e2", "1E+2", "100.0", "1.5e2"}) {
    out.push_back(std::string(R"({"query": "mcf", "replicates": )") + n + "}");
  }
  return out;
}

// Bombs nested to total depths around obs::json::k_max_depth (64).
std::vector<std::string> nesting_lines() {
  std::vector<std::string> out;
  for (const std::size_t d : {std::size_t{63}, std::size_t{64}, std::size_t{65},
                              std::size_t{10'000}}) {
    const std::string open(d, '['), close(d, ']');
    const std::string open_in(d - 1, '['), close_in(d - 1, ']');
    out.push_back(open + close);
    out.push_back(open);
    out.push_back(R"({"id": 1, "query": "tags", "x": )" + open_in + close_in + "}");
    out.push_back(R"({"id": 1, "query": "tags", "x": )" + open_in);
    out.push_back(R"({"id": 2, "ingest": )" + open_in + close_in + "}");
    std::string objects;
    for (std::size_t i = 0; i < d; ++i) objects += R"({"a":)";
    objects += "1" + std::string(d, '}');
    out.push_back(objects);
    if (d >= 2) {
      out.push_back(R"({"ingest": {"text": "x", "title": )" + std::string(d - 2, '[') +
                    std::string(d - 2, ']') + "}}");
    }
  }
  return out;
}

// Every prefix of a line up to 600 bytes long; of a longer one, the first
// and last 300 prefixes and every 7th between.
void add_truncations(const std::string& line, std::vector<std::string>& out) {
  for (std::size_t n = 0; n < line.size(); ++n) {
    if (n < 300 || line.size() - n <= 300 || n % 7 == 0) out.push_back(line.substr(0, n));
  }
}

std::string flip_bytes(std::string line, rng& gen) {
  if (line.empty()) return line;
  const auto flips = gen.uniform_int(1, 3);
  for (std::int64_t i = 0; i < flips; ++i) {
    const auto at = static_cast<std::size_t>(
        gen.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1));
    line[at] = static_cast<char>(gen.uniform_int(0, 255));
  }
  return line;
}

// Near-JSON soup: request-grammar tokens in random order.
std::string token_soup(rng& gen) {
  static const char* const k_tokens[] = {
      "{", "}", "[", "]", ":", ",", " ", "\"query\"", "\"tags\"", "\"metrics\"", "\"id\"",
      "\"maker\"", "\"waymo\"", "\"year\"", "2016", "\"ingest\"", "\"text\"", "\"title\"",
      "\"min_samples\"", "\"seed\"", "1e300", "-0", "7", "true", "null", "\"", "\\", "\\u00",
      "\"\\u0071uery\"", "{\"text\":\"x\"}", "\"fit\"", "\"mcf\"", "\"horizon_miles\"", "1e2"};
  std::string out;
  const auto n = gen.uniform_int(1, 24);
  for (std::int64_t i = 0; i < n; ++i) {
    out += k_tokens[gen.uniform_int(0, static_cast<std::int64_t>(std::size(k_tokens)) - 1)];
  }
  return out;
}

// The deterministic corpus: the base lines, their truncations (of the
// filings, cut first to their documents' first 12 lines: most cuts land
// inside a text string whatever its length), the edge cases, the numbers,
// the bombs and an oversized filing.
std::vector<std::string> fixed_corpus() {
  std::vector<std::string> out = smoke_query_lines();
  for (auto& line : testing::hot_lines()) out.push_back(std::move(line));
  std::vector<std::string> cut = out;
  for (auto& line : filing_lines(12)) cut.push_back(std::move(line));
  for (auto& line : filing_lines()) out.push_back(std::move(line));
  for (const auto& line : cut) add_truncations(line, out);
  for (auto& line : edge_lines()) out.push_back(std::move(line));
  for (auto& line : number_lines()) out.push_back(std::move(line));
  for (auto& line : nesting_lines()) out.push_back(std::move(line));
  // An oversized filing: 2 MiB of text on one line (well under the 16 MiB
  // line cap, far beyond any generated report).
  std::string big(std::size_t{2} << 20, 'A');
  for (std::size_t i = 0; i < big.size(); i += 4096) big[i] = '\\';
  for (std::size_t i = 1; i < big.size(); i += 4096) big[i] = 'n';
  out.push_back(R"({"id": "big", "ingest": {"text": ")" + big + R"(", "title": "big"}})");
  return out;
}

// The seeded mutants: byte flips of every base line and two kinds of soup.
std::vector<std::string> seeded_corpus(std::uint64_t seed) {
  rng gen(seed);
  std::vector<std::string> base = smoke_query_lines();
  for (auto& line : testing::hot_lines()) base.push_back(std::move(line));
  for (auto& line : edge_lines()) base.push_back(std::move(line));
  std::vector<std::string> out;
  for (const auto& line : base) {
    for (int i = 0; i < 8; ++i) out.push_back(flip_bytes(line, gen));
  }
  for (const auto& line : filing_lines(12)) {
    for (int i = 0; i < 8; ++i) out.push_back(flip_bytes(line, gen));
  }
  for (int i = 0; i < 300; ++i) out.push_back(parse::testing::random_line(gen, 120));
  for (int i = 0; i < 600; ++i) out.push_back(token_soup(gen));
  return out;
}

// ---- the oracle comparison -------------------------------------------------

void expect_same_document(const ocr::document& a, const ocr::document& b, std::string_view what) {
  EXPECT_EQ(a.title, b.title) << what;
  ASSERT_EQ(a.pages.size(), b.pages.size()) << what;
  for (std::size_t p = 0; p < a.pages.size(); ++p) {
    EXPECT_EQ(a.pages[p].lines, b.pages[p].lines) << what;
  }
}

// Abbreviates a corpus line for failure messages.
std::string shown(std::string_view line) {
  return line.size() <= 200 ? std::string(line) : std::string(line.substr(0, 200)) + "...";
}

void expect_same_request(const parsed_request& fast, const parsed_request& slow,
                         std::string_view line) {
  const auto where = shown(line);
  EXPECT_EQ(fast.id, slow.id) << where;
  EXPECT_EQ(fast.ingest, slow.ingest) << where;
  EXPECT_EQ(fast.canonical, slow.canonical) << where;
  ASSERT_EQ(fast.body.index(), slow.body.index()) << where;
  if (const auto* e = std::get_if<query_parse_error>(&fast.body)) {
    EXPECT_EQ(e->message, std::get<query_parse_error>(slow.body).message) << where;
  } else if (const auto* q = std::get_if<query>(&fast.body)) {
    const auto& r = std::get<query>(slow.body);
    EXPECT_EQ(q->kind, r.kind) << where;
    EXPECT_EQ(q->maker, r.maker) << where;
    EXPECT_EQ(q->year, r.year) << where;
    EXPECT_EQ(q->tag, r.tag) << where;
    EXPECT_EQ(q->category, r.category) << where;
    EXPECT_EQ(q->min_samples, r.min_samples) << where;
    EXPECT_EQ(q->replicates, r.replicates) << where;
    EXPECT_EQ(q->seed, r.seed) << where;
    EXPECT_EQ(q->horizon_miles, r.horizon_miles) << where;
  } else {
    const auto& a = std::get<ingest_request>(fast.body);
    const auto& b = std::get<ingest_request>(slow.body);
    expect_same_document(a.delivered, b.delivered, where);
    ASSERT_EQ(a.pristine.has_value(), b.pristine.has_value()) << where;
    if (a.pristine) expect_same_document(*a.pristine, *b.pristine, where);
  }
}

// Both decoders on every line, and the response bytes each decode yields
// on two engines fed the same lines. `reused` is decoded into line after
// line, as the serve loop's reader does.
void check_against_oracle(const std::vector<std::string>& corpus) {
  query_engine fast_engine(testing::make_test_database(), {.threads = 1});
  query_engine slow_engine(testing::make_test_database(), {.threads = 1});
  parsed_request reused;
  for (const auto& line : corpus) {
    const parsed_request slow = testing::parse_request(line);
    expect_same_request(parse_request(line), slow, line);
    parse_request(line, reused);
    expect_same_request(reused, slow, line);
    // parse_query is the same decoder in query-only mode.
    if (!slow.ingest) {
      query_parse_error fast_error;
      query_parse_error slow_error;
      const auto fast_q = parse_query(line, &fast_error);
      const auto doc = json::parse(line);
      const auto slow_q = !doc                ? std::nullopt
                          : doc->is_object() ? testing::parse_query(doc->as_object(), &slow_error)
                                             : std::nullopt;
      EXPECT_EQ(fast_q.has_value(), slow_q.has_value()) << shown(line);
      if (fast_q && slow_q) {
        EXPECT_EQ(fast_q->canonical(), slow_q->canonical()) << shown(line);
      }
      if (!fast_q && !slow_q && doc && doc->is_object()) {
        EXPECT_EQ(fast_error.message, slow_error.message) << shown(line);
      }
    }
    ASSERT_EQ(handle_request_line(fast_engine, line), answer_request(slow_engine, slow))
        << shown(line);
  }
}

TEST(ProtocolFuzz, DecoderMatchesDomOracleOnTheFixedCorpus) {
  check_against_oracle(fixed_corpus());
}

class ProtocolFuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolFuzzSeeds, DecoderMatchesDomOracleOnMutants) {
  check_against_oracle(seeded_corpus(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzzSeeds, ::testing::Values(1u, 2u, 3u));

// ---- the serve loop over the corpus ---------------------------------------

bool is_request_line(std::string_view line) {
  const auto first = line.find_first_not_of(" \t\r");
  return first != std::string_view::npos && line[first] != '#';
}

TEST(ProtocolFuzz, ServeLoopAnswersEveryRequestOnceInOrder) {
  // One request per input line: a newline inside a mutant would split it.
  std::vector<std::string> lines = fixed_corpus();
  for (auto& line : seeded_corpus(7)) lines.push_back(std::move(line));
  std::string stream;
  std::vector<std::string> requests;
  for (auto& line : lines) {
    for (auto& c : line) {
      if (c == '\n') c = ' ';
    }
    stream += line + '\n';
    if (is_request_line(line)) requests.push_back(line);
  }

  query_engine serial_engine(testing::make_test_database(), {.threads = 1});
  std::string serial;
  for (const auto& line : requests) serial += handle_request_line(serial_engine, line) + '\n';

  std::set<std::string> codes;
  for (const auto code : {error_code::ocr, error_code::header, error_code::parse,
                          error_code::normalize, error_code::label, error_code::io,
                          error_code::internal, error_code::limit}) {
    codes.emplace(error_code_name(code));
  }
  std::istringstream responses(serial);
  std::size_t answered = 0;
  for (std::string response; std::getline(responses, response); ++answered) {
    const auto doc = json::parse(response);
    ASSERT_TRUE(doc && doc->is_object()) << response;
    const auto* ok = doc->find("ok");
    ASSERT_TRUE(ok != nullptr && ok->is_bool()) << response;
    if (!ok->as_bool()) {
      const auto* code = doc->find("code");
      ASSERT_TRUE(code != nullptr && code->is_string()) << response;
      EXPECT_TRUE(codes.count(code->as_string()) == 1) << response;
    }
  }
  EXPECT_EQ(answered, requests.size());

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    query_engine engine(testing::make_test_database(), {.threads = 2, .shards = shards});
    std::istringstream in(stream);
    std::ostringstream out;
    const auto stats = run_serve_loop(engine, in, out, shards == 1 ? 8 : 3);
    EXPECT_FALSE(stats.aborted);
    EXPECT_EQ(stats.requests, requests.size()) << "shards " << shards;
    EXPECT_TRUE(out.str() == serial) << "shards " << shards;
  }
}

}  // namespace
}  // namespace avtk::serve
