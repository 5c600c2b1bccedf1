// The parallel Stage II must be bit-identical to the serial one for any
// thread count — the merge is in document order and each worker writes
// only the slots of the documents it takes. Also pins the longest-first
// dispatch order (scan_order) the workers take documents in.
#include <gtest/gtest.h>

#include <string>

#include "core/pipeline.h"
#include "dataset/generator.h"
#include "obs/metrics.h"

namespace avtk::core {
namespace {

const dataset::generated_corpus& corpus() {
  static const dataset::generated_corpus c = dataset::generate_corpus({});
  return c;
}

pipeline_result run_with(unsigned parallelism) {
  pipeline_config cfg;
  cfg.parallelism = parallelism;
  return run_pipeline(corpus().documents, corpus().pristine_documents, cfg);
}

void expect_identical(const pipeline_result& a, const pipeline_result& b) {
  ASSERT_EQ(a.database.disengagements().size(), b.database.disengagements().size());
  ASSERT_EQ(a.database.mileage().size(), b.database.mileage().size());
  ASSERT_EQ(a.database.accidents().size(), b.database.accidents().size());
  for (std::size_t i = 0; i < a.database.disengagements().size(); ++i) {
    const auto& da = a.database.disengagements()[i];
    const auto& db = b.database.disengagements()[i];
    EXPECT_EQ(da.description, db.description) << i;
    EXPECT_EQ(da.tag, db.tag) << i;
    EXPECT_EQ(da.maker, db.maker) << i;
    EXPECT_EQ(da.vehicle_id, db.vehicle_id) << i;
  }
  for (std::size_t i = 0; i < a.database.mileage().size(); ++i) {
    EXPECT_EQ(a.database.mileage()[i].vehicle_id, b.database.mileage()[i].vehicle_id);
    EXPECT_DOUBLE_EQ(a.database.mileage()[i].miles, b.database.mileage()[i].miles);
  }
  EXPECT_EQ(a.database.version(), b.database.version());
  EXPECT_EQ(a.stats.manual_transcriptions, b.stats.manual_transcriptions);
  EXPECT_EQ(a.stats.unknown_tags, b.stats.unknown_tags);
  EXPECT_EQ(a.stats.records_normalized_away, b.stats.records_normalized_away);
  EXPECT_EQ(a.stats.parse_failed_lines, b.stats.parse_failed_lines);
  EXPECT_NEAR(a.stats.ocr_mean_confidence, b.stats.ocr_mean_confidence, 1e-12);
}

class ParallelPipeline : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelPipeline, IdenticalToSerial) {
  const auto serial = run_with(1);
  const auto parallel = run_with(GetParam());
  expect_identical(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelPipeline, ::testing::Values(2u, 4u, 13u));

TEST(ParallelPipeline, OversubscriptionIsClamped) {
  // More threads than documents must still work.
  const auto result = run_with(10000);
  EXPECT_EQ(result.stats.documents_in, corpus().documents.size());
  EXPECT_EQ(result.stats.disengagements, 5328u);
}

// Records reach the database already labeled by their scan worker, yet the
// disengagement version still carries one bump per label on top of one per
// add, as when a corpus-wide pass relabeled the database: the serve wire
// reports these bytes (d10656 for the canonical corpus).
TEST(PipelineVersion, CountsOneLabelPerDisengagementOnTopOfItsAdd) {
  for (const unsigned parallelism : {1u, 4u}) {
    const auto result = run_with(parallelism);
    const auto& db = result.database;
    EXPECT_EQ(db.version().to_string(),
              "d" + std::to_string(2 * db.disengagements().size()) + ".m" +
                  std::to_string(db.mileage().size()) + ".a" +
                  std::to_string(db.accidents().size()))
        << "parallelism " << parallelism;
    EXPECT_EQ(db.version().to_string(), "d10656.m2039.a42") << "parallelism " << parallelism;
  }
}

// The workers add their labels to the nlp.* counters once per document;
// a run still adds one classification per disengagement and one unknown
// per Unknown-T label.
TEST(PipelineCounters, NlpCountersMatchTheRunsLabels) {
  auto& registry = obs::metrics();
  auto& classified = registry.get_counter("nlp.classifications");
  auto& unknown = registry.get_counter("nlp.unknown_tags");
  const auto classified_before = classified.value();
  const auto unknown_before = unknown.value();
  const auto result = run_with(4);
  EXPECT_EQ(classified.value() - classified_before, result.database.disengagements().size());
  EXPECT_EQ(unknown.value() - unknown_before, result.stats.unknown_tags);
  EXPECT_GT(result.stats.unknown_tags, 0u);
}

std::size_t line_bytes(const ocr::document& d) {
  std::size_t n = 0;
  for (const auto& page : d.pages) {
    for (const auto& line : page.lines) n += line.size();
  }
  return n;
}

// Checks the scan_order contract on `docs`: a permutation of the indices,
// non-increasing line bytes, equal byte counts in ascending index order.
void expect_scan_order(const std::vector<ocr::document>& docs) {
  const auto order = scan_order(docs);
  ASSERT_EQ(order.size(), docs.size());
  std::vector<bool> seen(docs.size(), false);
  for (const std::size_t i : order) {
    ASSERT_LT(i, docs.size());
    EXPECT_FALSE(seen[i]) << "index " << i << " handed out twice";
    seen[i] = true;
  }
  for (std::size_t k = 1; k < order.size(); ++k) {
    const auto before = line_bytes(docs[order[k - 1]]);
    const auto after = line_bytes(docs[order[k]]);
    EXPECT_GE(before, after) << "position " << k;
    if (before == after) {
      EXPECT_LT(order[k - 1], order[k]) << "position " << k;
    }
  }
}

TEST(ScanOrder, CorpusIsLongestFirstPermutation) { expect_scan_order(corpus().documents); }

TEST(ScanOrder, TiesGoByIndexAndPagesAddUp) {
  // Bytes per document: 3, 6 (over two pages), 6, 0 (no pages), 3.
  std::vector<ocr::document> docs(5);
  docs[0].pages = {{{"abc"}}};
  docs[1].pages = {{{"ab", "c"}}, {{"def"}}};
  docs[2].pages = {{{"abcdef"}}};
  docs[4].pages = {{{"a", "bc"}}};
  expect_scan_order(docs);
  EXPECT_EQ(scan_order(docs), (std::vector<std::size_t>{1, 2, 0, 4, 3}));
  EXPECT_TRUE(scan_order({}).empty());
}

}  // namespace
}  // namespace avtk::core
