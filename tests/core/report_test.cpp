// Renderer contracts: the text reports must carry the paper-comparison
// columns and the measured values; spot-checked against the canonical run.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/report.h"
#include "dataset/generator.h"
#include "util/strings.h"

namespace avtk::core {
namespace {

const pipeline_result& run() {
  static const pipeline_result r = [] {
    const auto corpus = dataset::generate_corpus({});
    return run_pipeline(corpus.documents, corpus.pristine_documents);
  }();
  return r;
}

TEST(Report, Table1CarriesPaperColumnsAndExactTotals) {
  const auto text = render_table1(run().database);
  EXPECT_TRUE(str::contains(text, "Miles(paper)"));
  EXPECT_TRUE(str::contains(text, "Diseng.(paper)"));
  // Waymo 2016 row: measured == paper == 424332 appears twice on one line.
  bool found = false;
  for (const auto& line : str::split(text, '\n')) {
    if (str::contains(line, "Waymo") && str::contains(line, "2016")) {
      EXPECT_GE(static_cast<int>(line.find("424332", line.find("424332") + 1)), 0);
      EXPECT_TRUE(str::contains(line, "341"));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Report, Table7ShowsRatiosWithX) {
  const auto text = render_table7(run().database, run().stats.analyzed);
  EXPECT_TRUE(str::contains(text, "vs human"));
  EXPECT_TRUE(str::contains(text, "x"));
  EXPECT_TRUE(str::contains(text, "Waymo"));
  // Manufacturers without accidents show dashes.
  for (const auto& line : str::split(text, '\n')) {
    if (str::contains(line, "Bosch")) {
      EXPECT_TRUE(str::contains(line, "-"));
    }
  }
}

TEST(Report, Fig8QuotesPaperValue) {
  const auto text = render_fig8(run().database, run().stats.analyzed);
  EXPECT_TRUE(str::contains(text, "paper: -0.87"));
  EXPECT_TRUE(str::contains(text, "Pearson r"));
}

TEST(Report, HeadlinesAllPassOnCanonicalRun) {
  const auto text = render_headlines(run().database, run().stats.analyzed);
  EXPECT_TRUE(str::contains(text, "| yes |"));
  EXPECT_FALSE(str::contains(text, "| NO  |"));
}

TEST(Report, PipelineStatsListEveryCounter) {
  const auto text = render_pipeline_stats(run().stats);
  for (const char* needle :
       {"documents in", "disengagement reports", "accident reports", "OCR lines",
        "manual transcriptions", "Unknown-T", "analyzed manufacturers"}) {
    EXPECT_TRUE(str::contains(text, needle)) << needle;
  }
}

TEST(Report, FullReportContainsEveryExperiment) {
  const auto text = render_full_report(run().database, run().stats.analyzed);
  for (const char* needle :
       {"Table I", "Fig. 4", "Fig. 5", "Table IV", "Fig. 6", "Table V", "Fig. 7", "Fig. 8",
        "Fig. 9", "Fig. 10", "Fig. 11", "Table VI", "Table VII", "Fig. 12", "Table VIII",
        "Headline claims"}) {
    EXPECT_TRUE(str::contains(text, needle)) << needle;
  }
}

}  // namespace
}  // namespace avtk::core
