// Serve payload goldens: pins the exact bytes render_payload emits for the
// six kinds the live traffic asks for (metrics, tags, categories, modality,
// trend, compare) on the seed-7 pipeline database — each kind bare, once
// per analyzed manufacturer, and with one year filter — folded into one
// FNV-1a digest per kind. The engine's own tests compare one execution
// layout with another inside a single build; these digests compare builds,
// so a change to a builder, to the vehicle-month join underneath most of
// them, or to the JSON number emission shows up here.
//
// If one of these hashes changes, a wire payload changed: that is a
// behavior change, not a refactor, and needs its own review.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/pipeline.h"
#include "dataset/generator.h"
#include "serve/render.h"
#include "serve_reference.h"

namespace {

using namespace avtk;
using serve::query;
using serve::query_kind;

// The seed-7 corpus through Stage I-III, as bench_paper and the CLI build it.
const core::pipeline_result& corpus() {
  static const auto result = [] {
    dataset::generator_config cfg;
    cfg.seed = 7;
    const auto generated = dataset::generate_corpus(cfg);
    core::pipeline_config pcfg;
    pcfg.parallelism = 4;
    return core::run_pipeline(generated.documents, generated.pristine_documents, pcfg);
  }();
  return result;
}

// FNV-1a 64-bit over every payload of `kind`: bare, per analyzed maker,
// then year 2016. Each payload is preceded by its length.
std::string payload_digest(query_kind kind) {
  std::uint64_t h = 14695981039346656037ull;
  const auto fold = [&](const std::string& s) {
    for (const unsigned char c : std::to_string(s.size()) + ":" + s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  const auto& db = corpus().database;
  query q;
  q.kind = kind;
  fold(serve::render_payload(db, q));
  for (const auto maker : corpus().stats.analyzed) {
    query per_maker = q;
    per_maker.maker = maker;
    fold(serve::testing::reference_payload(db, per_maker));
  }
  query per_year = q;
  per_year.year = 2016;
  fold(serve::testing::reference_payload(db, per_year));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

TEST(ServePayloadGoldens, Metrics) {
  EXPECT_EQ(payload_digest(query_kind::metrics), "c2a2c2003fe49860");
}

TEST(ServePayloadGoldens, Tags) {
  EXPECT_EQ(payload_digest(query_kind::tags), "b161cae89fb12ec1");
}

TEST(ServePayloadGoldens, Categories) {
  EXPECT_EQ(payload_digest(query_kind::categories), "d258d87bec88ca5a");
}

TEST(ServePayloadGoldens, Modality) {
  EXPECT_EQ(payload_digest(query_kind::modality), "5621aa19c00bc5d3");
}

TEST(ServePayloadGoldens, Trend) {
  EXPECT_EQ(payload_digest(query_kind::trend), "75ceb7ef73d8d9d0");
}

TEST(ServePayloadGoldens, Compare) {
  EXPECT_EQ(payload_digest(query_kind::compare), "b156c063e3d0d651");
}

}  // namespace
