// Tracing must be a pure observer: enabling it changes nothing about the
// pipeline's output, and the spans it records cover the stages of Fig. 1
// with durations that add up.
#include <gtest/gtest.h>

#include <set>

#include "core/pipeline.h"
#include "dataset/generator.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "span_totals.h"

namespace avtk::core {
namespace {

const dataset::generated_corpus& corpus() {
  static const dataset::generated_corpus c = dataset::generate_corpus({});
  return c;
}

pipeline_result run_traced(obs::trace* trace, unsigned parallelism = 1) {
  pipeline_config cfg;
  cfg.trace = trace;
  cfg.parallelism = parallelism;
  return run_pipeline(corpus().documents, corpus().pristine_documents, cfg);
}

TEST(TracePipeline, OutputIdenticalWithTracingOnAndOff) {
  const auto untraced = run_traced(nullptr);
  obs::trace trace;
  const auto traced = run_traced(&trace);

  ASSERT_EQ(traced.database.disengagements().size(), untraced.database.disengagements().size());
  ASSERT_EQ(traced.database.mileage().size(), untraced.database.mileage().size());
  ASSERT_EQ(traced.database.accidents().size(), untraced.database.accidents().size());
  for (std::size_t i = 0; i < traced.database.disengagements().size(); ++i) {
    const auto& a = traced.database.disengagements()[i];
    const auto& b = untraced.database.disengagements()[i];
    ASSERT_EQ(a.description, b.description) << i;
    ASSERT_EQ(a.tag, b.tag) << i;
  }
  EXPECT_EQ(traced.stats.unknown_tags, untraced.stats.unknown_tags);
  EXPECT_EQ(traced.stats.manual_transcriptions, untraced.stats.manual_transcriptions);
  EXPECT_EQ(traced.stats.parse_failed_lines, untraced.stats.parse_failed_lines);
  EXPECT_NEAR(traced.stats.ocr_mean_confidence, untraced.stats.ocr_mean_confidence, 1e-12);
  EXPECT_EQ(traced.stats.analyzed, untraced.stats.analyzed);
}

TEST(TracePipeline, RecordsEveryFigure1Stage) {
  obs::trace trace;
  run_traced(&trace);
  const auto spans = trace.spans();

  std::set<std::string> names;
  for (const auto& s : spans) {
    names.insert(s.name);
    EXPECT_GE(s.duration_ns, 0) << s.name << " left open";
  }
  for (const char* stage :
       {"pipeline", "scan", "ocr", "parse", "merge", "normalize", "ingest", "classify",
        "classify.build", "classify.label", "analysis"}) {
    EXPECT_TRUE(names.contains(stage)) << stage;
  }

  // One ocr + one parse span per document, parented under the scan span.
  const std::size_t docs = corpus().documents.size();
  std::size_t ocr_spans = 0;
  std::uint64_t scan_id = 0;
  for (const auto& s : spans) {
    if (s.name == "scan") scan_id = s.id;
  }
  ASSERT_NE(scan_id, 0u);
  for (const auto& s : spans) {
    if (s.name == "ocr") {
      ++ocr_spans;
      EXPECT_EQ(s.parent, scan_id);
    }
  }
  EXPECT_EQ(ocr_spans, docs);
}

TEST(TracePipeline, StageDurationsAreConsistent) {
  obs::trace trace;
  const auto result = run_traced(&trace);
  const auto spans = trace.spans();

  // Serial run: every leaf stage fits inside the pipeline root span, and
  // together the leaves account for at least half of it (the pipeline does
  // very little outside its stages; the test bound is deliberately loose).
  const std::int64_t root = obs::total_duration_ns(spans, "pipeline");
  std::int64_t leaves = 0;
  for (const char* stage : {"ocr", "parse", "merge", "normalize", "ingest", "classify",
                            "analysis"}) {
    const auto ns = obs::total_duration_ns(spans, stage);
    EXPECT_LE(ns, root) << stage;
    leaves += ns;
  }
  EXPECT_GT(root, 0);
  EXPECT_GE(leaves, root / 2);
  EXPECT_LE(leaves, root + root / 10);

  // stage_timings mirrors the same measurement (always on, even untraced).
  EXPECT_GT(result.stats.total_seconds, 0);
  EXPECT_GT(result.stats.stage_seconds("ocr"), 0);
  EXPECT_GT(result.stats.stage_seconds("parse"), 0);
  EXPECT_GT(result.stats.stage_seconds("classify"), 0);
  EXPECT_EQ(result.stats.stage_seconds("no-such-stage"), 0);
  EXPECT_EQ(result.stats.stage_timings.size(), 9u);

  // The label stage is split: build + labeling pass nest inside classify.
  EXPECT_GT(result.stats.stage_seconds("classify.label"), 0);
  EXPECT_LE(result.stats.stage_seconds("classify.build") +
                result.stats.stage_seconds("classify.label"),
            result.stats.stage_seconds("classify") * 1.01 + 1e-4);
}

TEST(TracePipeline, ParallelScanStillTracesEveryDocument) {
  obs::trace trace;
  const auto result = run_traced(&trace, 4);
  const auto spans = trace.spans();
  EXPECT_EQ(obs::total_duration_ns(spans, "ocr") > 0, true);
  std::size_t parse_spans = 0;
  for (const auto& s : spans) {
    if (s.name == "parse") ++parse_spans;
  }
  EXPECT_EQ(parse_spans, corpus().documents.size());
  EXPECT_EQ(result.stats.documents_in, corpus().documents.size());
}

}  // namespace
}  // namespace avtk::core
