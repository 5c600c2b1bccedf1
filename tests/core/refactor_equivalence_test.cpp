// Refactor-equivalence suite: pins the batch pipeline's observable output
// byte-for-byte across the ingest-path extraction (and any future
// restructuring of run_pipeline). The golden hashes below were captured
// from the pre-extraction monolithic run_pipeline; the thin batch driver
// built on ingest::document_processor must reproduce them exactly for
// every on_error policy x labeler x parallelism combination, including
// which documents a chaos run quarantines and the stage-timings schema.
// The naive rows relabel the pipeline's database with the test-only
// reference scorer (nlp_reference.h) and must land on the same digest,
// with every reference verdict's score, runner-up, confidence and matched
// phrases equal to the production classifier's.
//
// If one of these hashes ever changes, the pipeline's output changed —
// that is a behavior change, not a refactor, and needs its own review.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "dataset/csv_io.h"
#include "dataset/generator.h"
#include "inject/corruptor.h"
#include "nlp/classifier.h"
#include "nlp_reference.h"

namespace {

using namespace avtk;

// FNV-1a 64-bit: tiny, dependency-free, and stable across platforms for
// the byte streams we pin (CSV text and quarantine JSON).
std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// The corpus + injection the CI chaos gate uses (seed 7, inject seed 42,
// fraction 0.1): realistic damage with a non-trivial quarantine set.
dataset::generated_corpus make_corpus(bool injected) {
  dataset::generator_config cfg;
  cfg.seed = 7;
  auto corpus = dataset::generate_corpus(cfg);
  if (injected) {
    inject::injection_config icfg;
    icfg.seed = 42;
    icfg.fraction = 0.1;
    inject::inject_faults(corpus.documents, corpus.pristine_documents, icfg);
  }
  return corpus;
}

enum class labeler { automaton, naive };

const char* labeler_name(labeler l) { return l == labeler::naive ? "naive" : "automaton"; }

// Everything the run exports, folded into one hash: the three analysis
// CSVs, the quarantine report (under the quarantine policy), and the
// stage-timings schema (names in order; never the wall-clock values).
// Under labeler::naive every disengagement is relabeled with the reference
// scorer and unknown_tags recounted before hashing.
std::string run_digest(const dataset::generated_corpus& corpus, core::error_policy policy,
                       labeler labels, unsigned parallelism) {
  core::pipeline_config cfg;
  cfg.on_error = policy;
  cfg.parallelism = parallelism;
  auto result = core::run_pipeline(corpus.documents, corpus.pristine_documents, cfg);
  if (labels == labeler::naive) {
    // The CSV export carries each winner but no score, so every verdict
    // is also checked whole against the production classifier's.
    const nlp::keyword_voting_classifier production(cfg.dictionary);
    result.stats.unknown_tags = 0;
    for (std::size_t i = 0; i < result.database.disengagements().size(); ++i) {
      const auto& description = result.database.disengagements()[i].description;
      const auto c = nlp::testing::reference_classify(cfg.dictionary, description);
      const auto p = production.classify(description);
      if (c.score != p.score || c.runner_up != p.runner_up || c.confidence != p.confidence ||
          c.matched_phrases != p.matched_phrases) {
        ADD_FAILURE() << "reference verdict differs from production on disengagement " << i
                      << ": score " << c.score << " vs " << p.score << ", runner-up "
                      << c.runner_up << " vs " << p.runner_up << ", confidence "
                      << c.confidence << " vs " << p.confidence;
        return "reference-mismatch";
      }
      result.database.relabel_disengagement(i, c.tag, c.category);
      if (c.tag == nlp::fault_tag::unknown) ++result.stats.unknown_tags;
    }
  }

  const auto csv = dataset::export_csv(result.database);
  std::uint64_t h = 14695981039346656037ull;
  h = fnv1a(h, csv.disengagements);
  h = fnv1a(h, csv.mileage);
  h = fnv1a(h, csv.accidents);
  if (policy == core::error_policy::quarantine) {
    h = fnv1a(h, core::quarantine_to_json(result, policy));
  }
  for (const auto& t : result.stats.stage_timings) h = fnv1a(h, t.stage + ";");
  h = fnv1a(h, std::to_string(result.stats.documents_quarantined));
  h = fnv1a(h, std::to_string(result.stats.unknown_tags));
  return hex(h);
}

// Golden digests captured from the pre-extraction pipeline (one corpus
// generation per row; fail_fast rows run the clean corpus — under
// injection that policy aborts by design).
struct golden_row {
  core::error_policy policy;
  labeler labels;
  unsigned parallelism;
  const char* digest;
};

const golden_row k_golden[] = {
    {core::error_policy::fail_fast, labeler::automaton, 1, "3f0df60abf2bacf5"},
    {core::error_policy::fail_fast, labeler::automaton, 4, "3f0df60abf2bacf5"},
    {core::error_policy::fail_fast, labeler::naive, 1, "3f0df60abf2bacf5"},
    {core::error_policy::fail_fast, labeler::naive, 4, "3f0df60abf2bacf5"},
    {core::error_policy::skip, labeler::automaton, 1, "67edc56b6afe8110"},
    {core::error_policy::skip, labeler::automaton, 4, "67edc56b6afe8110"},
    {core::error_policy::skip, labeler::naive, 1, "67edc56b6afe8110"},
    {core::error_policy::skip, labeler::naive, 4, "67edc56b6afe8110"},
    {core::error_policy::quarantine, labeler::automaton, 1, "9e18def73f6b8675"},
    {core::error_policy::quarantine, labeler::automaton, 4, "9e18def73f6b8675"},
    {core::error_policy::quarantine, labeler::naive, 1, "9e18def73f6b8675"},
    {core::error_policy::quarantine, labeler::naive, 4, "9e18def73f6b8675"},
};

TEST(RefactorEquivalence, BatchOutputMatchesPreExtractionGoldens) {
  const auto clean = make_corpus(/*injected=*/false);
  const auto chaos = make_corpus(/*injected=*/true);
  for (const auto& row : k_golden) {
    const bool strict = row.policy != core::error_policy::fail_fast;
    const auto& corpus = strict ? chaos : clean;
    const auto digest = run_digest(corpus, row.policy, row.labels, row.parallelism);
    EXPECT_EQ(digest, row.digest)
        << "policy=" << core::error_policy_name(row.policy)
        << " labeler=" << labeler_name(row.labels)
        << " parallelism=" << row.parallelism;
  }
}

// The policy x parallelism grid must agree with itself: for a fixed
// labeler, skip and quarantine produce identical analysis output (the
// quarantine report is extra, not different), and any thread count
// produces identical bytes.
TEST(RefactorEquivalence, PoliciesAgreeOnSurvivingDocuments) {
  const auto chaos = make_corpus(/*injected=*/true);
  const auto skip_1 = run_digest(chaos, core::error_policy::skip, labeler::automaton, 1);
  const auto skip_4 = run_digest(chaos, core::error_policy::skip, labeler::automaton, 4);
  EXPECT_EQ(skip_1, skip_4);
}

}  // namespace
