// Raw-document serve ingestion tests: query_engine::ingest_document and
// the avtk.serve.v1 "ingest" request kind. A clean document appends its
// records, bumps only the domains it touched and invalidates only their
// dependent cache entries; an injected-fault document answers with a
// structured reject envelope carrying the probe's taxonomy code and leaves
// the database version and the cache untouched.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ingest/processor.h"
#include "ingest_test_util.h"
#include "obs/json.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve_test_util.h"

namespace avtk::serve {
namespace {

namespace json = obs::json;

using testing::first_report;
using testing::ingest_request_line;

query make_query(query_kind kind) {
  query q;
  q.kind = kind;
  return q;
}

TEST(ServeIngest, CleanDocumentAppendsAndBumpsOnlyTouchedDomains) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  const auto before = engine.version();

  const auto r = engine.ingest_document(first_report(/*accident=*/false));
  ASSERT_TRUE(r.accepted());
  EXPECT_GT(r.disengagements_added, 0u);
  EXPECT_GT(r.mileage_added, 0u);
  EXPECT_EQ(r.accidents_added, 0u);

  // A disengagement report touches d and m; a is untouched.
  EXPECT_EQ(r.version.disengagements, before.disengagements + r.disengagements_added);
  EXPECT_EQ(r.version.mileage, before.mileage + r.mileage_added);
  EXPECT_EQ(r.version.accidents, before.accidents);
  EXPECT_EQ(engine.version(), r.version);
}

TEST(ServeIngest, IngestInvalidatesOnlyDependentCacheEntries) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  const auto tags = make_query(query_kind::tags);        // depends on d only
  const auto metrics = make_query(query_kind::metrics);  // depends on d+m+a
  ASSERT_FALSE(engine.execute(tags).cache_hit);
  ASSERT_FALSE(engine.execute(metrics).cache_hit);

  // An accident report touches only the a domain: the tag mix keeps
  // serving from cache, the reliability metrics must recompute.
  const auto r = engine.ingest_document(first_report(/*accident=*/true));
  ASSERT_TRUE(r.accepted());
  EXPECT_EQ(r.disengagements_added, 0u);
  EXPECT_EQ(r.mileage_added, 0u);
  EXPECT_GT(r.accidents_added, 0u);
  EXPECT_TRUE(engine.execute(tags).cache_hit);
  EXPECT_FALSE(engine.execute(metrics).cache_hit);
}

TEST(ServeIngest, RejectCarriesProbeCodeAndPerturbsNothing) {
  const auto [docs, pristine, report] = testing::inject_corpus();
  ASSERT_FALSE(report.faults.empty());

  query_engine engine(testing::make_test_database(), {.threads = 1});
  const auto metrics = make_query(query_kind::metrics);
  ASSERT_FALSE(engine.execute(metrics).cache_hit);
  const auto before = engine.version();

  const auto& fault = report.faults.front();
  const auto r = engine.ingest_document(docs[fault.index], &pristine[fault.index]);
  ASSERT_FALSE(r.accepted());
  EXPECT_EQ(r.reject->code, fault.code);
  EXPECT_EQ(r.reject->title, docs[fault.index].title);
  EXPECT_EQ(r.disengagements_added + r.mileage_added + r.accidents_added, 0u);

  // The reject bumped nothing and dropped nothing: version identical,
  // cached results keep serving.
  EXPECT_EQ(r.version, before);
  EXPECT_EQ(engine.version(), before);
  EXPECT_TRUE(engine.execute(metrics).cache_hit);
}

TEST(ServeIngest, IngestIndicesSequenceAcrossCalls) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  const auto& doc = first_report(/*accident=*/true);
  const auto a = engine.ingest_document(doc);
  const auto b = engine.ingest_document(doc);
  EXPECT_EQ(a.index + 1, b.index);
}

// --- wire protocol ---

// One serve-loop run over a scripted batch; returns the response lines.
std::vector<std::string> run_batch(query_engine& engine, const std::string& requests,
                                   serve_loop_stats* stats_out = nullptr,
                                   const serve_loop_options& options = {}) {
  std::istringstream in(requests);
  std::ostringstream out;
  const auto stats = run_serve_loop(engine, in, out, options);
  if (stats_out != nullptr) *stats_out = stats;
  std::vector<std::string> lines;
  std::istringstream reader(out.str());
  std::string line;
  while (std::getline(reader, line)) lines.push_back(line);
  return lines;
}

TEST(ServeIngestProtocol, RoundTripAppendsAndAnswersInOrder) {
  query_engine engine(testing::make_test_database(), {.threads = 2});
  const auto& doc = first_report(/*accident=*/true);
  const std::string batch = "{\"query\": \"tags\", \"id\": 0}\n" +
                            ingest_request_line(doc, 1) +
                            "\n{\"query\": \"tags\", \"id\": 2}\n";
  serve_loop_stats stats;
  const auto lines = run_batch(engine, batch, &stats);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.ingests, 1u);
  EXPECT_EQ(stats.ingest_rejected, 0u);
  EXPECT_GT(stats.ingest_records, 0u);
  EXPECT_EQ(stats.errors, 0u);

  const auto ack = json::parse(lines[1]);
  ASSERT_TRUE(ack && ack->is_object()) << lines[1];
  EXPECT_TRUE(ack->find("ok")->as_bool());
  EXPECT_EQ(ack->find("id")->as_number(), 1.0);
  const auto* ingest = ack->find("ingest");
  ASSERT_NE(ingest, nullptr);
  EXPECT_GT(ingest->find("accidents")->as_number(), 0.0);
  EXPECT_EQ(ingest->find("disengagements")->as_number(), 0.0);

  // The accident append leaves the tag mix's cache key untouched, so the
  // post-ingest tags response is byte-identical to the pre-ingest one
  // modulo the id (and was a cache hit).
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(ServeIngestProtocol, CorruptedDocumentAnswersStructuredReject) {
  const auto [docs, pristine, report] = testing::inject_corpus();
  ASSERT_FALSE(report.faults.empty());
  const auto& fault = report.faults.front();

  query_engine engine(testing::make_test_database(), {.threads = 1});
  const auto version_before = engine.version();
  serve_loop_stats stats;
  const auto lines =
      run_batch(engine, ingest_request_line(docs[fault.index], 9) + "\n", &stats);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(stats.ingests, 1u);
  EXPECT_EQ(stats.ingest_rejected, 1u);
  EXPECT_FALSE(stats.aborted);

  const auto rej = json::parse(lines[0]);
  ASSERT_TRUE(rej && rej->is_object()) << lines[0];
  EXPECT_FALSE(rej->find("ok")->as_bool());
  EXPECT_EQ(rej->find("code")->as_string(), error_code_name(fault.code));
  const auto* rejects = rej->find("rejects");
  ASSERT_NE(rejects, nullptr);
  ASSERT_TRUE(rejects->is_array());
  ASSERT_EQ(rejects->as_array().size(), 1u);
  const auto& entry = rejects->as_array().front();
  EXPECT_EQ(entry.find("code")->as_string(), error_code_name(fault.code));
  EXPECT_EQ(entry.find("title")->as_string(), docs[fault.index].title);
  EXPECT_FALSE(entry.find("message")->as_string().empty());
  EXPECT_EQ(rej->find("version")->as_string(), version_before.to_string());
  EXPECT_EQ(engine.version(), version_before);
}

TEST(ServeIngestProtocol, FailFastAbortsLoopOnReject) {
  const auto [docs, pristine, report] = testing::inject_corpus();
  ASSERT_FALSE(report.faults.empty());

  query_engine engine(testing::make_test_database(), {.threads = 1});
  serve_loop_options options;
  options.on_ingest_error = ingest::error_policy::fail_fast;
  serve_loop_stats stats;
  const auto lines = run_batch(engine,
                               ingest_request_line(docs[report.faults.front().index], 0) +
                                   "\n{\"query\": \"tags\", \"id\": 1}\n",
                               &stats, options);
  // The reject was answered, then the loop stopped: the trailing query
  // never ran.
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(stats.aborted);
  EXPECT_EQ(stats.requests, 1u);
}

// The fail_fast abort contract (serve/protocol.h): the response stream is
// a deterministic prefix — one response per request up to and including
// the reject envelope, nothing after it, byte-identical run to run — no
// matter how wide the pipelining window is. The in-flight window is a
// response-order barrier at every ingest, so queries admitted before the
// poisoned ingest are always answered, queries after it never are.
TEST(ServeIngestProtocol, FailFastStreamIsDeterministicPrefixAcrossWindows) {
  const auto [docs, pristine, report] = testing::inject_corpus();
  ASSERT_FALSE(report.faults.empty());
  const auto& fault = report.faults.front();

  // Two queries, a clean ingest, two more queries, the poisoned ingest,
  // then a tail that must never be answered.
  const std::string batch = "{\"query\": \"tags\", \"id\": 0}\n"
                            "{\"query\": \"metrics\", \"id\": 1}\n" +
                            ingest_request_line(first_report(/*accident=*/true), 2) +
                            "\n{\"query\": \"tags\", \"id\": 3}\n"
                            "{\"query\": \"categories\", \"id\": 4}\n" +
                            ingest_request_line(docs[fault.index], 5) +
                            "\n{\"query\": \"tags\", \"id\": 6}\n"
                            "{\"query\": \"modality\", \"id\": 7}\n";

  std::vector<std::string> first_run;
  for (const std::size_t window : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    query_engine engine(testing::make_test_database(), {.threads = 2});
    serve_loop_options options;
    options.on_ingest_error = ingest::error_policy::fail_fast;
    options.max_in_flight = window;
    serve_loop_stats stats;
    const auto lines = run_batch(engine, batch, &stats, options);

    EXPECT_TRUE(stats.aborted) << "window " << window;
    // Exactly the six requests before and including the reject.
    ASSERT_EQ(lines.size(), 6u) << "window " << window;
    EXPECT_EQ(stats.requests, 6u);
    const auto rej = json::parse(lines.back());
    ASSERT_TRUE(rej && rej->is_object()) << lines.back();
    EXPECT_FALSE(rej->find("ok")->as_bool());
    EXPECT_EQ(rej->find("code")->as_string(), error_code_name(fault.code));
    EXPECT_EQ(rej->find("id")->as_number(), 5.0);

    // Responses echo request ids in order: the prefix is deterministic.
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const auto doc = json::parse(lines[i]);
      ASSERT_TRUE(doc && doc->is_object()) << lines[i];
      EXPECT_EQ(doc->find("id")->as_number(), static_cast<double>(i)) << "window " << window;
    }
    if (first_run.empty()) {
      first_run = lines;
    } else {
      EXPECT_EQ(lines, first_run) << "window " << window
                                  << ": abort prefix differs between window sizes";
    }
  }
}

TEST(ServeIngestProtocol, SkipPolicyDropsRejectDetail) {
  const auto [docs, pristine, report] = testing::inject_corpus();
  ASSERT_FALSE(report.faults.empty());

  query_engine engine(testing::make_test_database(), {.threads = 1});
  serve_loop_options options;
  options.on_ingest_error = ingest::error_policy::skip;
  serve_loop_stats stats;
  const auto lines = run_batch(
      engine, ingest_request_line(docs[report.faults.front().index], 0) + "\n", &stats, options);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_FALSE(stats.aborted);
  const auto rej = json::parse(lines[0]);
  ASSERT_TRUE(rej && rej->is_object());
  EXPECT_FALSE(rej->find("ok")->as_bool());
  EXPECT_EQ(rej->find("rejects"), nullptr);  // skip: code + error only
}

TEST(ServeIngestProtocol, MalformedIngestRequestIsParseError) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  serve_loop_stats stats;
  const auto lines = run_batch(engine,
                               "{\"ingest\": {\"title\": \"no text member\"}}\n"
                               "{\"ingest\": {\"text\": \"x\", \"bogus\": 1}}\n",
                               &stats);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(stats.parse_errors, 2u);
  EXPECT_EQ(stats.ingests, 0u);
  for (const auto& line : lines) {
    const auto rej = json::parse(line);
    ASSERT_TRUE(rej && rej->is_object());
    EXPECT_FALSE(rej->find("ok")->as_bool());
    EXPECT_EQ(rej->find("code")->as_string(), "parse");
  }
}

TEST(ServeIngestProtocol, OneShotHandleRequestLineIngests) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  const auto response =
      handle_request_line(engine, ingest_request_line(first_report(/*accident=*/true), 3));
  const auto doc = json::parse(response);
  ASSERT_TRUE(doc && doc->is_object()) << response;
  EXPECT_TRUE(doc->find("ok")->as_bool());
  ASSERT_NE(doc->find("ingest"), nullptr);
}

}  // namespace
}  // namespace avtk::serve
