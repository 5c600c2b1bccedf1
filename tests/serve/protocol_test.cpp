// serve/protocol.h tests: envelope shape, id echo, comment/blank skipping,
// pipelined response ordering, error accounting, warm/cold byte equality
// end to end through the wire format, the single-parse request path, the
// pipelined loop against the serial path, and the window's release rule.
#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <sstream>
#include <streambuf>
#include <string>
#include <variant>
#include <vector>

#include "ingest_test_util.h"
#include "obs/json.h"
#include "serve/protocol.h"
#include "serve_test_util.h"

namespace avtk::serve {
namespace {

namespace json = obs::json;

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(HandleRequestLine, OkEnvelopeCarriesSchemaQueryVersionPayload) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  const auto response =
      handle_request_line(engine, R"({"query": "tags", "maker": "waymo"})");
  const auto doc = json::parse(response);
  ASSERT_TRUE(doc.has_value()) << response;
  EXPECT_EQ(doc->find("schema")->as_string(), k_serve_schema);
  EXPECT_TRUE(doc->find("ok")->as_bool());
  EXPECT_EQ(doc->find("query")->as_string(), "tags?maker=waymo");
  EXPECT_EQ(doc->find("version")->as_string(), engine.version().to_string());
  ASSERT_NE(doc->find("payload"), nullptr);
  EXPECT_TRUE(doc->find("payload")->is_object());
  EXPECT_EQ(doc->find("error"), nullptr);
}

TEST(HandleRequestLine, EchoesStringAndNumericIds) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  const auto with_string =
      handle_request_line(engine, R"({"query": "compare", "id": "req-7"})");
  const auto doc = json::parse(with_string);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("id")->as_string(), "req-7");

  const auto with_number = handle_request_line(engine, R"({"id": 42, "query": "compare"})");
  const auto num_doc = json::parse(with_number);
  ASSERT_TRUE(num_doc.has_value());
  EXPECT_EQ(num_doc->find("id")->as_number(), 42.0);
}

TEST(HandleRequestLine, ErrorsBecomeEnvelopesNotThrows) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  for (const auto* bad : {"not json", R"({"query": "nope"})",
                          R"({"query": "tags", "bogus": 1, "id": "e1"})"}) {
    const auto response = handle_request_line(engine, bad);
    const auto doc = json::parse(response);
    ASSERT_TRUE(doc.has_value()) << response;
    EXPECT_EQ(doc->find("schema")->as_string(), k_serve_schema);
    EXPECT_FALSE(doc->find("ok")->as_bool());
    EXPECT_FALSE(doc->find("error")->as_string().empty());
    EXPECT_EQ(doc->find("payload"), nullptr);
  }
  // The id survives even on a rejected request.
  const auto doc = json::parse(
      handle_request_line(engine, R"({"query": "tags", "bogus": 1, "id": "e1"})"));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("id")->as_string(), "e1");
}

TEST(ServeLoop, OneOrderedResponsePerRequest) {
  // One worker serializes execution, so the repeated metrics query is a
  // guaranteed cache hit (with more workers both could miss concurrently).
  query_engine engine(testing::make_test_database(), {.threads = 1});
  std::istringstream in(
      "# scripted batch\n"
      R"({"query": "metrics", "id": 1})" "\n"
      "\n"
      R"({"query": "tags", "id": 2})" "\n"
      R"({"query": "metrics", "id": 3})" "\n"
      R"({"query": "nope", "id": 4})" "\n"
      R"({"query": "compare", "id": 5})" "\n");
  std::ostringstream out;
  const auto stats = run_serve_loop(engine, in, out);

  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);  // the repeated metrics query

  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 5u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto doc = json::parse(lines[i]);
    ASSERT_TRUE(doc.has_value()) << lines[i];
    EXPECT_EQ(doc->find("id")->as_number(), static_cast<double>(i + 1));
    EXPECT_EQ(doc->find("ok")->as_bool(), i != 3);
  }
  // Warm response is byte-identical to the cold one apart from the id.
  const auto strip_id = [](std::string s, std::string_view id_member) {
    const auto at = s.find(id_member);
    EXPECT_NE(at, std::string::npos) << s;
    return s.erase(at, id_member.size());
  };
  EXPECT_EQ(strip_id(lines[0], R"("id":1,)"), strip_id(lines[2], R"("id":3,)"));
}

TEST(ServeLoop, PipeliningDepthDoesNotReorderResponses) {
  query_engine engine(testing::make_test_database(), {.threads = 4});
  std::string batch;
  for (int i = 0; i < 40; ++i) {
    const char* kind = i % 3 == 0 ? "metrics" : i % 3 == 1 ? "tags" : "trend";
    batch += std::string(R"({"query": ")") + kind + R"(", "id": )" +
             std::to_string(i) + "}\n";
  }
  for (const std::size_t depth : {std::size_t{1}, std::size_t{8}, std::size_t{0}}) {
    std::istringstream in(batch);
    std::ostringstream out;
    const auto stats = run_serve_loop(engine, in, out, depth);
    EXPECT_EQ(stats.requests, 40u);
    EXPECT_EQ(stats.errors, 0u);
    const auto lines = lines_of(out.str());
    ASSERT_EQ(lines.size(), 40u);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const auto doc = json::parse(lines[i]);
      ASSERT_TRUE(doc.has_value());
      EXPECT_EQ(doc->find("id")->as_number(), static_cast<double>(i));
    }
  }
}

TEST(ServeLoop, EmptyAndCommentOnlyInputProducesNoOutput) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  std::istringstream in("# nothing here\n\n   \n# still nothing\n");
  std::ostringstream out;
  const auto stats = run_serve_loop(engine, in, out);
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_TRUE(out.str().empty());
}

// ---- one parse per request line ----------------------------------------

// A line of a million unclosed brackets: without a nesting bound the
// recursive-descent parser would overflow the serve process's stack.
std::string nesting_bomb() { return std::string(1'000'000, '['); }

// The exact parse-error envelope the wire answers a malformed line with.
std::string parse_error_envelope(std::string_view id_json, std::string_view message) {
  std::string out = R"({"schema":"avtk.serve.v1","ok":false)";
  if (!id_json.empty()) {
    out += R"(,"id":)";
    out += id_json;
  }
  out += R"(,"code":"parse","error":)";
  out += json::escape(message);
  out += '}';
  return out;
}

struct malformed_case {
  const char* line;
  const char* id_json;  ///< the echoed id, "" when the line carries none
  const char* message;
};

// Every malformed-line class of the single-parse path, with the exact
// message it answers with: the line itself, then each query field, then
// each ingest field.
const malformed_case k_malformed[] = {
    {"not json", "", "request is not valid JSON"},
    {R"({"query": "tags", "id": 1)", "", "request is not valid JSON"},
    {R"(["query", "tags"])", "", "request must be a JSON object"},
    {R"("tags")", "", "request must be a JSON object"},
    {R"({"id": 1})", "1", "missing required field 'query'"},
    {R"({"query": 7, "id": "q2"})", R"("q2")", "'query' must be a string"},
    {R"({"query": "nope", "id": 3})", "3", "unknown query kind 'nope'"},
    {R"({"query": "tags", "bogus": 1})", "", "unknown field 'bogus'"},
    {R"({"query": "tags", "maker": 3})", "", "'maker' must be a string"},
    {R"({"query": "tags", "maker": "acme"})", "", "unknown manufacturer 'acme'"},
    {R"({"query": "tags", "year": 2016.5})", "", "'year' must be an integer"},
    {R"({"query": "tags", "year": 1900})", "", "'year' out of range"},
    {R"({"query": "tags", "tag": 1})", "", "'tag' must be a string"},
    {R"({"query": "tags", "tag": "gremlins"})", "", "unknown fault tag 'gremlins'"},
    {R"({"query": "tags", "category": 1})", "", "'category' must be a string"},
    {R"({"query": "tags", "category": "cosmic"})", "", "unknown category 'cosmic'"},
    {R"({"query": "fit", "min_samples": 0})", "", "'min_samples' must be a positive integer"},
    {R"({"query": "mcf", "replicates": 50})", "",
     "'replicates' must be an integer in [100, 10000]"},
    {R"({"query": "mcf", "seed": -1})", "", "'seed' must be a non-negative integer"},
    {R"({"query": "nhpp", "horizon_miles": 0})", "",
     "'horizon_miles' must be a positive integer of miles"},
    {R"({"ingest": 5, "id": 9})", "9", "'ingest' must be a document text string or an object"},
    {R"({"ingest": {"text": "x", "bogus": 1}})", "", "unknown ingest field 'bogus'"},
    {R"({"ingest": {"title": "t"}, "id": "i"})", R"("i")",
     "ingest request needs a string 'text' member"},
    {R"({"ingest": {"text": "x", "title": 1}})", "", "ingest 'title' must be a string"},
    {R"({"ingest": {"text": "x", "pristine": 1}})", "", "ingest 'pristine' must be a string"},
};

TEST(ParseRequest, MalformedLinesAnswerExactMessages) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  for (const auto& c : k_malformed) {
    const auto req = parse_request(c.line);
    const auto* error = std::get_if<query_parse_error>(&req.body);
    ASSERT_NE(error, nullptr) << c.line;
    EXPECT_EQ(error->message, c.message) << c.line;
    EXPECT_EQ(req.id, c.id_json) << c.line;
    EXPECT_EQ(handle_request_line(engine, c.line), parse_error_envelope(c.id_json, c.message))
        << c.line;
    // A query line answers the message parse_query's text overload gives.
    if (!req.ingest) {
      query_parse_error text_error;
      EXPECT_FALSE(parse_query(c.line, &text_error).has_value()) << c.line;
      EXPECT_EQ(text_error.message, c.message) << c.line;
    }
  }
}

TEST(ParseRequest, OneParseYieldsIdAndBody) {
  const auto q = parse_request(R"({"id": "a", "query": "tags", "maker": "waymo"})");
  EXPECT_EQ(q.id, R"("a")");
  EXPECT_FALSE(q.ingest);
  ASSERT_TRUE(std::holds_alternative<query>(q.body));
  EXPECT_EQ(std::get<query>(q.body).canonical(), "tags?maker=waymo");
  EXPECT_EQ(q.canonical, "tags?maker=waymo");

  // Only string and numeric ids are echoed, as obs::json dumps them.
  EXPECT_EQ(parse_request(R"({"id": 4, "query": "tags"})").id, "4");
  EXPECT_EQ(parse_request(R"({"id": 1e2, "query": "tags"})").id, "100");
  EXPECT_EQ(parse_request(R"({"id": "\u0041", "query": "tags"})").id, R"("A")");
  EXPECT_TRUE(parse_request(R"({"id": true, "query": "tags"})").id.empty());
  EXPECT_TRUE(parse_request(R"({"query": "tags"})").id.empty());

  // "ingest" wins over "query", and the request's other members are ignored.
  const auto i = parse_request(R"({"ingest": "REPORT", "query": "tags", "id": 7})");
  EXPECT_TRUE(i.ingest);
  EXPECT_EQ(i.id, "7");
  ASSERT_TRUE(std::holds_alternative<ingest_request>(i.body));
  EXPECT_FALSE(std::get<ingest_request>(i.body).pristine.has_value());
}

TEST(HandleRequestLine, NestingBombIsAParseError) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  EXPECT_EQ(handle_request_line(engine, nesting_bomb()),
            parse_error_envelope("", "request is not valid JSON"));
  // Nested inside an otherwise valid request, the whole line is unreadable,
  // so no id can be recovered from it either.
  EXPECT_EQ(handle_request_line(engine, R"({"id": 5, "query": )" + nesting_bomb()),
            parse_error_envelope("", "request is not valid JSON"));
}

TEST(ServeLoop, NestingBombIsAnsweredAndTheNextRequestToo) {
  query_engine engine(testing::make_test_database(), {.threads = 2});
  std::istringstream in(R"({"query": "tags", "id": 0})" "\n" + nesting_bomb() +
                        "\n" R"({"query": "trend", "id": 2})" "\n");
  std::ostringstream out;
  const auto stats = run_serve_loop(engine, in, out);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.parse_errors, 1u);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1], parse_error_envelope("", "request is not valid JSON"));
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    const auto doc = json::parse(lines[i]);
    ASSERT_TRUE(doc.has_value()) << lines[i];
    EXPECT_TRUE(doc->find("ok")->as_bool());
    EXPECT_EQ(doc->find("id")->as_number(), static_cast<double>(i));
  }
}

// ---- the request-line cap ------------------------------------------------

std::string limit_envelope() {
  return R"({"schema":"avtk.serve.v1","ok":false,"code":"limit","error":"request line exceeds )" +
         std::to_string(k_max_request_bytes) + R"( bytes"})";
}

TEST(ServeLoop, OverlongLineIsOneLimitErrorBetweenItsNeighbours) {
  query_engine engine(testing::make_test_database(), {.threads = 2});
  std::istringstream in(R"({"query": "tags", "id": 0})" "\n" +
                        std::string(k_max_request_bytes + 1, 'x') +
                        "\n" R"({"query": "trend", "id": 2})" "\n");
  std::ostringstream out;
  const auto stats = run_serve_loop(engine, in, out);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.parse_errors, 1u);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1], limit_envelope());
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    const auto doc = json::parse(lines[i]);
    ASSERT_TRUE(doc.has_value()) << lines[i];
    EXPECT_TRUE(doc->find("ok")->as_bool());
    EXPECT_EQ(doc->find("id")->as_number(), static_cast<double>(i));
  }
}

TEST(ServeLoop, OverlongLastLineWithoutNewlineIsOneLimitError) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  std::istringstream in(R"({"query": "tags", "id": 0})" "\n" +
                        std::string(k_max_request_bytes + 1, 'x'));
  std::ostringstream out;
  const auto stats = run_serve_loop(engine, in, out);
  EXPECT_EQ(stats.requests, 2u);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], limit_envelope());
}

TEST(ServeLoop, LineAtTheCapIsReadWhole) {
  // Exactly k_max_request_bytes is still a request: it reaches the JSON
  // parser (and fails there), it is not cut off as too long.
  query_engine engine(testing::make_test_database(), {.threads = 1});
  std::istringstream in(std::string(k_max_request_bytes, 'x') + "\n" +
                        std::string(k_max_request_bytes, 'x'));
  std::ostringstream out;
  const auto stats = run_serve_loop(engine, in, out);
  EXPECT_EQ(stats.requests, 2u);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines) {
    EXPECT_EQ(line, parse_error_envelope("", "request is not valid JSON"));
  }
}

// ---- the pipelined loop equals the serial path ---------------------------

// Warm hits and cold misses, string / numeric / absent ids, every
// malformed-line class, comments and blanks, and an accepted and a
// rejected filing between queries whose cached results they do and do not
// invalidate.
std::string mixed_stream() {
  const auto injected = testing::inject_corpus();
  EXPECT_FALSE(injected.report.faults.empty());
  const auto& fault = injected.report.faults.front();

  std::vector<std::string> lines = {
      "# a scripted batch",
      R"({"query": "metrics", "id": 0})",
      R"({"query": "tags", "maker": "waymo", "id": "t1"})",
      R"({"query": "trend"})",
      R"({"query": "compare", "id": 3})",
      R"({"query": "metrics", "id": 4})",
      "",
      R"({"query": "fit", "min_samples": 5, "id": "f"})",
      R"({"query": "categories", "year": 2016, "id": 6})",
  };
  for (const auto& c : k_malformed) lines.emplace_back(c.line);
  lines.push_back(nesting_bomb());
  for (int i = 0; i < 12; ++i) {
    const char* kind = i % 3 == 0 ? "metrics" : i % 3 == 1 ? "tags" : "trend";
    lines.push_back(std::string(R"({"query": ")") + kind + R"(", "id": )" +
                    std::to_string(100 + i) + "}");
  }
  lines.push_back(testing::ingest_request_line(testing::first_report(/*accident=*/true), 200));
  lines.push_back(R"({"query": "tags", "id": 201})");     // accidents untouched: warm
  lines.push_back(R"({"query": "metrics", "id": 202})");  // reads accidents: cold
  lines.push_back(R"({"query": "modality", "maker": "delphi"})");
  lines.push_back(testing::ingest_request_line(injected.docs[fault.index], 203));
  lines.push_back(R"({"query": "metrics", "id": 204})");  // a reject bumps nothing: warm
  for (int i = 0; i < 9; ++i) {
    const char* kind = i % 3 == 0 ? "compare" : i % 3 == 1 ? "fit" : "tags";
    lines.push_back(std::string(R"({"query": ")") + kind + R"(", "id": )" +
                    std::to_string(300 + i) + "}");
  }
  std::string out;
  for (const auto& line : lines) out += line + '\n';
  return out;
}

std::string serial_answers(const std::string& stream, std::size_t shards) {
  query_engine engine(testing::make_test_database(), {.threads = 1, .shards = shards});
  std::string out;
  for (const auto& line : lines_of(stream)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    out += handle_request_line(engine, line) + '\n';
  }
  return out;
}

TEST(ServeLoop, PipelinedStreamEqualsSerialPath) {
  const std::string stream = mixed_stream();
  const std::string serial = serial_answers(stream, 1);
  ASSERT_EQ(lines_of(serial).size(), 60u);
  EXPECT_EQ(serial_answers(stream, 4), serial);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t window :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      query_engine engine(testing::make_test_database(), {.threads = 2, .shards = shards});
      std::istringstream in(stream);
      std::ostringstream out;
      const auto stats = run_serve_loop(engine, in, out, window);
      EXPECT_EQ(out.str(), serial) << "shards " << shards << ", window " << window;
      EXPECT_EQ(stats.ingests, 2u);
      EXPECT_EQ(stats.ingest_rejected, 1u);
      EXPECT_EQ(stats.parse_errors, std::size(k_malformed) + 1);
    }
  }
}

// ---- the window's release rule -------------------------------------------

// Counts the response lines written so far.
class line_counter : public std::streambuf {
 public:
  std::size_t lines() const { return lines_; }

 protected:
  int_type overflow(int_type c) override {
    if (c == '\n') ++lines_;
    return traits_type::not_eof(c);
  }

 private:
  std::size_t lines_ = 0;
};

// Hands out one request line per read and records, at each read, how many
// response lines had been written by then. The last entry is the read that
// found the end of input.
class one_line_source : public std::streambuf {
 public:
  one_line_source(std::vector<std::string> lines, const line_counter& written)
      : lines_(std::move(lines)), written_(written) {}

  const std::vector<std::size_t>& written_at_read() const { return written_at_read_; }

 protected:
  int_type underflow() override {
    written_at_read_.push_back(written_.lines());
    if (next_ == lines_.size()) return traits_type::eof();
    current_ = lines_[next_++] + '\n';
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(current_.front());
  }

 private:
  std::vector<std::string> lines_;
  const line_counter& written_;
  std::size_t next_ = 0;
  std::string current_;
  std::vector<std::size_t> written_at_read_;
};

// The rule the loop must keep, as a model: a response is written only when
// the window is full, a filing drains it, or input ends. A line carrying
// an "ingest" member is a filing even when malformed.
std::vector<std::size_t> release_model(const std::vector<std::string>& lines,
                                       std::size_t window) {
  std::vector<std::size_t> at_read;
  std::size_t written = 0;
  std::size_t held = 0;
  for (const auto& line : lines) {
    at_read.push_back(written);
    if (line.find("\"ingest\"") != std::string::npos) {
      written += held + 1;
      held = 0;
    } else if (++held >= window) {
      written += held - (window - 1);
      held = window - 1;
    }
  }
  at_read.push_back(written);
  return at_read;
}

TEST(ServeLoop, WindowReleasesOnlyWhenFullOnAFilingOrAtEnd) {
  const std::vector<std::string> hot = {R"({"query": "metrics"})", R"({"query": "tags"})",
                                        R"({"query": "trend", "maker": "waymo"})"};
  std::vector<std::string> warm;
  for (int i = 0; i < 20; ++i) {
    warm.push_back(i == 13 ? std::string("not json") : hot[static_cast<std::size_t>(i) % 3]);
  }
  std::vector<std::string> with_filings = warm;
  with_filings.insert(with_filings.begin() + 5,
                      testing::ingest_request_line(testing::first_report(/*accident=*/true), 0));
  with_filings.insert(with_filings.begin() + 12, R"({"ingest": 5})");

  for (const auto* lines : {&warm, &with_filings}) {
    for (const std::size_t window : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      query_engine engine(testing::make_test_database(), {.threads = 2});
      for (const auto& line : hot) engine.execute(*parse_query(line));
      line_counter written;
      one_line_source source(*lines, written);
      std::istream in(&source);
      std::ostream out(&written);
      const auto stats = run_serve_loop(engine, in, out, window);
      const bool fully_warm = lines == &warm;
      EXPECT_EQ(written.lines(), lines->size()) << "window " << window;
      EXPECT_EQ(source.written_at_read(), release_model(*lines, window))
          << "window " << window << (fully_warm ? ", fully warm" : ", with filings");
      if (fully_warm) {
        EXPECT_EQ(stats.cache_hits, lines->size() - 1);  // every line but "not json"
      }
    }
  }
}

}  // namespace
}  // namespace avtk::serve
