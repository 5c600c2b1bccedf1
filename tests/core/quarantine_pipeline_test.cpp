// Fault-containment tests: the on_error policies, the fail_fast
// lowest-index guarantee (identical for any thread count), the quarantine
// ledger and its avtk.quarantine.v1 export, probe_document, and the
// determinism contract between a quarantine run and a clean run that never
// contained the corrupted documents.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/pipeline.h"
#include "dataset/csv_io.h"
#include "dataset/generator.h"
#include "inject/corruptor.h"
#include "obs/json.h"
#include "obs/metrics.h"

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
  cfg.seed = 1207;
  return cfg;
}

// One corrupted corpus shared by the policy tests (generation + injection
// are deterministic, so building it per test would just repeat work).
struct chaos_fixture {
  dataset::generated_corpus corpus;
  inject::injection_report report;

  chaos_fixture() {
    corpus = dataset::generate_corpus(corpus_config());
    inject::injection_config icfg;
    icfg.seed = 99;
    icfg.fraction = 0.12;
    report = inject::inject_faults(corpus.documents, corpus.pristine_documents, icfg);
  }
};

const chaos_fixture& chaos() {
  static const chaos_fixture fixture;
  return fixture;
}

TEST(ErrorPolicy, NamesRoundTrip) {
  using core::error_policy;
  for (const auto policy :
       {error_policy::fail_fast, error_policy::skip, error_policy::quarantine}) {
    const auto name = core::error_policy_name(policy);
    const auto back = core::error_policy_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, policy);
  }
  EXPECT_EQ(core::error_policy_from_name("fail-fast"), error_policy::fail_fast);
  EXPECT_FALSE(core::error_policy_from_name("explode").has_value());
}

TEST(FailFast, ThrowsDocumentErrorForLowestIndexAtAnyParallelism) {
  const auto& fx = chaos();
  ASSERT_FALSE(fx.report.faults.empty());
  const auto indices = indices_of(fx.report);
  const std::size_t lowest = *std::min_element(indices.begin(), indices.end());

  for (unsigned parallelism = 1; parallelism <= 8; ++parallelism) {
    core::pipeline_config cfg;
    cfg.parallelism = parallelism;
    try {
      core::run_pipeline(fx.corpus.documents, fx.corpus.pristine_documents, cfg);
      FAIL() << "expected document_error at parallelism " << parallelism;
    } catch (const core::document_error& e) {
      EXPECT_EQ(e.index(), lowest) << "parallelism " << parallelism;
      EXPECT_EQ(e.title(), fx.corpus.documents[lowest].title);
      EXPECT_FALSE(e.message().empty());
      // The identity is in the what() text too, for uncaught-exception logs.
      EXPECT_NE(std::string(e.what()).find(e.title()), std::string::npos);
    }
  }
}

TEST(FailFast, LowerShortFaultWinsOverLongestFaultDispatchedFirst) {
  // The parallel scan starts the longest document first, so here it meets
  // the higher-index fault (the longest filing, placed last) before the
  // lower one (a short accident report, placed first). The lower index
  // must still be the one thrown.
  const auto corpus = dataset::generate_corpus(corpus_config());
  // scan_order (pinned by its own tests) lists the longest document first
  // and the shortest last.
  const auto order = core::scan_order(corpus.documents);
  const std::size_t longest = order.front();
  const auto accident = std::find_if(order.rbegin(), order.rend(), [&](std::size_t i) {
    return corpus.documents[i].title.find("Accident") != std::string::npos;
  });
  ASSERT_NE(accident, order.rend());
  const std::size_t shortest_accident = *accident;

  // The accident report, a few clean filings, then the longest filing.
  std::vector<ocr::document> documents{corpus.documents[shortest_accident]};
  std::vector<ocr::document> pristine{corpus.pristine_documents[shortest_accident]};
  for (std::size_t i = 0; documents.size() < 6; ++i) {
    if (i == longest || i == shortest_accident) continue;
    documents.push_back(corpus.documents[i]);
    pristine.push_back(corpus.pristine_documents[i]);
  }
  documents.push_back(corpus.documents[longest]);
  pristine.push_back(corpus.pristine_documents[longest]);
  const std::size_t last = documents.size() - 1;

  // A garbled header leaves the report kind readable but not the maker,
  // which even the lenient fail_fast scan refuses.
  for (const std::size_t i : {std::size_t{0}, last}) {
    std::vector<ocr::document> one{documents[i]};
    std::vector<ocr::document> one_pristine{pristine[i]};
    inject::injection_config icfg;
    icfg.fraction = 1.0;
    icfg.kinds = {inject::fault_kind::garble_header};
    inject::inject_faults(one, one_pristine, icfg);
    EXPECT_THROW(core::run_pipeline(one, one_pristine), core::document_error) << i;
    documents[i] = std::move(one.front());
    pristine[i] = std::move(one_pristine.front());
  }
  ASSERT_EQ(core::scan_order(documents).front(), last);

  for (unsigned parallelism = 1; parallelism <= 8; ++parallelism) {
    core::pipeline_config cfg;
    cfg.parallelism = parallelism;
    try {
      core::run_pipeline(documents, pristine, cfg);
      FAIL() << "expected document_error at parallelism " << parallelism;
    } catch (const core::document_error& e) {
      EXPECT_EQ(e.index(), 0u) << "parallelism " << parallelism;
      EXPECT_EQ(e.title(), documents[0].title);
    }
  }
}

TEST(FailFast, CleanCorpusBehavesIdenticallyToLegacyDefault) {
  // The default policy on a clean corpus must keep the historical
  // behavior: nothing quarantined, nothing thrown, same database as the
  // explicit-quarantine run of the same corpus.
  const auto corpus = dataset::generate_corpus(corpus_config());
  const auto fail_fast = core::run_pipeline(corpus.documents, corpus.pristine_documents);

  core::pipeline_config qcfg;
  qcfg.on_error = core::error_policy::quarantine;
  const auto quarantine = core::run_pipeline(corpus.documents, corpus.pristine_documents, qcfg);

  EXPECT_EQ(fail_fast.stats.documents_quarantined, 0u);
  EXPECT_EQ(quarantine.stats.documents_quarantined, 0u);
  EXPECT_TRUE(quarantine.quarantined.empty());

  const auto a = dataset::export_csv(fail_fast.database);
  const auto b = dataset::export_csv(quarantine.database);
  EXPECT_EQ(a.disengagements, b.disengagements);
  EXPECT_EQ(a.mileage, b.mileage);
  EXPECT_EQ(a.accidents, b.accidents);
}

TEST(SkipPolicy, CountsWithoutSurfacing) {
  const auto& fx = chaos();
  core::pipeline_config cfg;
  cfg.on_error = core::error_policy::skip;
  const auto result = core::run_pipeline(fx.corpus.documents, fx.corpus.pristine_documents, cfg);
  EXPECT_EQ(result.stats.documents_quarantined, fx.report.faults.size());
  EXPECT_TRUE(result.quarantined.empty());
  EXPECT_EQ(result.stats.documents_in, fx.corpus.documents.size());
}

TEST(QuarantinePolicy, SurfacesExactlyTheInjectedDocuments) {
  const auto& fx = chaos();
  core::pipeline_config cfg;
  cfg.on_error = core::error_policy::quarantine;
  const auto result = core::run_pipeline(fx.corpus.documents, fx.corpus.pristine_documents, cfg);

  ASSERT_EQ(result.quarantined.size(), fx.report.faults.size());
  std::vector<std::size_t> got;
  for (const auto& q : result.quarantined) {
    got.push_back(q.index);
    EXPECT_FALSE(q.message.empty());
    EXPECT_NE(q.code, error_code::internal);
    EXPECT_EQ(q.title, fx.corpus.documents[q.index].title);
  }
  EXPECT_EQ(got, indices_of(fx.report));  // document order == ascending index
  EXPECT_EQ(result.stats.documents_quarantined, fx.report.faults.size());
}

TEST(QuarantinePolicy, DeterministicAcrossParallelism) {
  const auto& fx = chaos();
  core::pipeline_config serial;
  serial.on_error = core::error_policy::quarantine;
  const auto a = core::run_pipeline(fx.corpus.documents, fx.corpus.pristine_documents, serial);
  const auto csv_a = dataset::export_csv(a.database);

  for (unsigned parallelism = 2; parallelism <= 8; ++parallelism) {
    auto threaded = serial;
    threaded.parallelism = parallelism;
    const auto b =
        core::run_pipeline(fx.corpus.documents, fx.corpus.pristine_documents, threaded);

    ASSERT_EQ(a.quarantined.size(), b.quarantined.size()) << "parallelism " << parallelism;
    for (std::size_t i = 0; i < a.quarantined.size(); ++i) {
      EXPECT_EQ(a.quarantined[i].index, b.quarantined[i].index);
      EXPECT_EQ(a.quarantined[i].code, b.quarantined[i].code);
      EXPECT_EQ(a.quarantined[i].message, b.quarantined[i].message);
    }
    const auto csv_b = dataset::export_csv(b.database);
    EXPECT_EQ(csv_a.disengagements, csv_b.disengagements) << "parallelism " << parallelism;
    EXPECT_EQ(csv_a.mileage, csv_b.mileage) << "parallelism " << parallelism;
    EXPECT_EQ(csv_a.accidents, csv_b.accidents) << "parallelism " << parallelism;
    EXPECT_EQ(a.database.version(), b.database.version()) << "parallelism " << parallelism;
    EXPECT_EQ(a.stats.unknown_tags, b.stats.unknown_tags) << "parallelism " << parallelism;
    EXPECT_EQ(a.stats.records_normalized_away, b.stats.records_normalized_away)
        << "parallelism " << parallelism;
  }
}

TEST(QuarantinePolicy, CleanSubsetAnalysisMatchesDroppedRun) {
  // The headline chaos contract: quarantining set S must yield the same
  // database as never having had S at all.
  const auto& fx = chaos();
  core::pipeline_config cfg;
  cfg.on_error = core::error_policy::quarantine;
  const auto chaos_run =
      core::run_pipeline(fx.corpus.documents, fx.corpus.pristine_documents, cfg);

  // Control arm: the *uncorrupted* originals, minus the injected set.
  const auto clean = dataset::generate_corpus(corpus_config());
  const auto injected = indices_of(fx.report);
  std::vector<ocr::document> kept_docs;
  std::vector<ocr::document> kept_pristine;
  for (std::size_t i = 0; i < clean.documents.size(); ++i) {
    if (std::find(injected.begin(), injected.end(), i) != injected.end()) continue;
    kept_docs.push_back(clean.documents[i]);
    kept_pristine.push_back(clean.pristine_documents[i]);
  }
  const auto control = core::run_pipeline(kept_docs, kept_pristine);

  const auto a = dataset::export_csv(chaos_run.database);
  const auto b = dataset::export_csv(control.database);
  EXPECT_EQ(a.disengagements, b.disengagements);
  EXPECT_EQ(a.mileage, b.mileage);
  EXPECT_EQ(a.accidents, b.accidents);
}

TEST(QuarantinePolicy, RecordsMetrics) {
  const auto& fx = chaos();
  auto& registry = obs::metrics();
  const auto before = registry.get_counter("pipeline.documents_quarantined").value();

  core::pipeline_config cfg;
  cfg.on_error = core::error_policy::quarantine;
  const auto result = core::run_pipeline(fx.corpus.documents, fx.corpus.pristine_documents, cfg);

  const auto after = registry.get_counter("pipeline.documents_quarantined").value();
  EXPECT_EQ(after - before, result.stats.documents_quarantined);
  // Every quarantined code has a per-code counter with at least its share.
  for (const auto& q : result.quarantined) {
    const auto name = "pipeline.quarantined." + std::string(error_code_name(q.code));
    EXPECT_GT(registry.get_counter(name).value(), 0u) << name;
  }
}

TEST(QuarantineJson, WellFormedSchemaV1) {
  const auto& fx = chaos();
  core::pipeline_config cfg;
  cfg.on_error = core::error_policy::quarantine;
  const auto result = core::run_pipeline(fx.corpus.documents, fx.corpus.pristine_documents, cfg);

  const auto text = core::quarantine_to_json(result, cfg.on_error);
  const auto doc = obs::json::parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->as_string(), "avtk.quarantine.v1");
  EXPECT_EQ(doc->find("policy")->as_string(), "quarantine");
  EXPECT_EQ(static_cast<std::size_t>(doc->find("documents_in")->as_number()),
            fx.corpus.documents.size());
  const auto& docs = doc->find("documents")->as_array();
  ASSERT_EQ(docs.size(), result.quarantined.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(docs[i].find("index")->as_number()),
              result.quarantined[i].index);
    EXPECT_EQ(docs[i].find("code")->as_string(),
              error_code_name(result.quarantined[i].code));
    EXPECT_FALSE(docs[i].find("message")->as_string().empty());
  }
}

TEST(ProbeDocument, CleanPassesCorruptFails) {
  const auto corpus = dataset::generate_corpus(corpus_config());
  ASSERT_FALSE(corpus.documents.empty());
  EXPECT_FALSE(
      core::probe_document(corpus.documents[0], &corpus.pristine_documents[0]).has_value());

  ocr::document empty;
  empty.title = "hollow";
  const auto probed = core::probe_document(empty, nullptr, {}, 7);
  ASSERT_TRUE(probed.has_value());
  EXPECT_EQ(probed->index, 7u);
  EXPECT_EQ(probed->title, "hollow");
  EXPECT_EQ(probed->code, error_code::header);
}

}  // namespace
