// Fault-injection harness tests: seeded determinism, selection size, the
// detectability guarantee (every injected document fails the strict
// probe), and non-interference with untouched documents.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/pipeline.h"
#include "dataset/generator.h"
#include "inject/corruptor.h"
#include "obs/json.h"

namespace {

using namespace avtk;

// The corrupted document indices, in manifest (ascending) order.
std::vector<std::size_t> indices_of(const inject::injection_report& report) {
  std::vector<std::size_t> out;
  for (const auto& f : report.faults) out.push_back(f.index);
  return out;
}

dataset::generator_config corpus_config() {
  dataset::generator_config cfg;
  cfg.seed = 2018;
  return cfg;
}

TEST(FaultKind, NamesRoundTrip) {
  for (const auto kind : inject::all_fault_kinds()) {
    const auto name = inject::fault_kind_name(kind);
    const auto back = inject::fault_kind_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(inject::fault_kind_from_name("meteor_strike").has_value());
}

TEST(InjectFaults, DeterministicForSameSeed) {
  inject::injection_config cfg;
  cfg.seed = 31;
  cfg.fraction = 0.2;

  auto corpus_a = dataset::generate_corpus(corpus_config());
  auto corpus_b = dataset::generate_corpus(corpus_config());
  const auto report_a = inject::inject_faults(corpus_a.documents, corpus_a.pristine_documents, cfg);
  const auto report_b = inject::inject_faults(corpus_b.documents, corpus_b.pristine_documents, cfg);

  ASSERT_EQ(report_a.faults.size(), report_b.faults.size());
  for (std::size_t i = 0; i < report_a.faults.size(); ++i) {
    EXPECT_EQ(report_a.faults[i].index, report_b.faults[i].index);
    EXPECT_EQ(report_a.faults[i].requested, report_b.faults[i].requested);
    EXPECT_EQ(report_a.faults[i].applied, report_b.faults[i].applied);
    EXPECT_EQ(report_a.faults[i].code, report_b.faults[i].code);
  }
  // The damage itself is byte-identical, not just the manifest.
  for (std::size_t i = 0; i < corpus_a.documents.size(); ++i) {
    EXPECT_EQ(corpus_a.documents[i].full_text(), corpus_b.documents[i].full_text());
    EXPECT_EQ(corpus_a.pristine_documents[i].full_text(),
              corpus_b.pristine_documents[i].full_text());
  }
}

TEST(InjectFaults, DifferentSeedPicksDifferentVictims) {
  auto corpus_a = dataset::generate_corpus(corpus_config());
  auto corpus_b = dataset::generate_corpus(corpus_config());
  inject::injection_config cfg_a;
  cfg_a.seed = 1;
  cfg_a.fraction = 0.15;
  auto cfg_b = cfg_a;
  cfg_b.seed = 2;
  const auto a = inject::inject_faults(corpus_a.documents, corpus_a.pristine_documents, cfg_a);
  const auto b = inject::inject_faults(corpus_b.documents, corpus_b.pristine_documents, cfg_b);
  EXPECT_NE(indices_of(a), indices_of(b));
}

TEST(InjectFaults, SelectsRequestedFraction) {
  auto corpus = dataset::generate_corpus(corpus_config());
  const std::size_t n = corpus.documents.size();
  inject::injection_config cfg;
  cfg.fraction = 0.1;
  const auto report = inject::inject_faults(corpus.documents, corpus.pristine_documents, cfg);
  const auto expected = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(0.1 * static_cast<double>(n))));
  EXPECT_EQ(report.faults.size(), expected);
  EXPECT_EQ(report.documents_in, n);
  // Indices are unique, ascending, in range.
  const auto indices = indices_of(report);
  EXPECT_TRUE(std::is_sorted(indices.begin(), indices.end()));
  EXPECT_EQ(std::adjacent_find(indices.begin(), indices.end()), indices.end());
  for (const auto i : indices) EXPECT_LT(i, n);
}

TEST(InjectFaults, EveryInjectedDocumentFailsTheStrictProbe) {
  auto corpus = dataset::generate_corpus(corpus_config());
  inject::injection_config cfg;
  cfg.seed = 7;
  cfg.fraction = 0.2;
  const auto report = inject::inject_faults(corpus.documents, corpus.pristine_documents, cfg);
  ASSERT_FALSE(report.faults.empty());
  for (const auto& f : report.faults) {
    const auto probed = core::probe_document(
        corpus.documents[f.index], &corpus.pristine_documents[f.index], {}, f.index);
    ASSERT_TRUE(probed.has_value()) << "document " << f.index << " survived injection";
    EXPECT_EQ(probed->code, f.code) << "document " << f.index;
    EXPECT_NE(probed->code, error_code::internal);
  }
}

TEST(InjectFaults, UntouchedDocumentsAreByteIdentical) {
  const auto original = dataset::generate_corpus(corpus_config());
  auto corpus = dataset::generate_corpus(corpus_config());
  inject::injection_config cfg;
  cfg.fraction = 0.1;
  const auto report = inject::inject_faults(corpus.documents, corpus.pristine_documents, cfg);
  const auto injected = indices_of(report);
  for (std::size_t i = 0; i < corpus.documents.size(); ++i) {
    if (std::find(injected.begin(), injected.end(), i) != injected.end()) continue;
    EXPECT_EQ(corpus.documents[i].full_text(), original.documents[i].full_text()) << i;
    EXPECT_EQ(corpus.pristine_documents[i].full_text(),
              original.pristine_documents[i].full_text())
        << i;
  }
}

TEST(InjectFaults, SpecificFaultKindsAreHonored) {
  auto corpus = dataset::generate_corpus(corpus_config());
  inject::injection_config cfg;
  cfg.fraction = 0.1;
  cfg.kinds = {inject::fault_kind::empty_document};
  const auto report = inject::inject_faults(corpus.documents, corpus.pristine_documents, cfg);
  for (const auto& f : report.faults) {
    EXPECT_EQ(f.requested, inject::fault_kind::empty_document);
    EXPECT_EQ(f.applied, inject::fault_kind::empty_document);
    EXPECT_EQ(f.escalations, 0u);
    EXPECT_EQ(corpus.documents[f.index].line_count(), 0u);
  }
}

TEST(InjectFaults, RejectsBadInput) {
  auto corpus = dataset::generate_corpus(corpus_config());
  inject::injection_config cfg;
  cfg.fraction = 1.5;
  EXPECT_THROW(inject::inject_faults(corpus.documents, corpus.pristine_documents, cfg),
               logic_error);
  cfg.fraction = 0.1;
  std::vector<ocr::document> mismatched(corpus.documents.size() - 1);
  EXPECT_THROW(inject::inject_faults(corpus.documents, mismatched, cfg), logic_error);
}

TEST(InjectionJson, WellFormedSchemaV1) {
  auto corpus = dataset::generate_corpus(corpus_config());
  inject::injection_config cfg;
  cfg.seed = 5;
  cfg.fraction = 0.1;
  const auto report = inject::inject_faults(corpus.documents, corpus.pristine_documents, cfg);
  const auto doc = obs::json::parse(inject::injection_to_json(report));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->as_string(), "avtk.inject.v1");
  EXPECT_EQ(static_cast<std::uint64_t>(doc->find("seed")->as_number()), 5u);
  const auto& faults = doc->find("faults")->as_array();
  ASSERT_EQ(faults.size(), report.faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(faults[i].find("index")->as_number()),
              report.faults[i].index);
    EXPECT_EQ(faults[i].find("applied")->as_string(),
              inject::fault_kind_name(report.faults[i].applied));
  }
}

}  // namespace
