// The thread-safety audit tests (built under -DAVTK_SANITIZE=thread in CI's
// sanitizer leg). Two contracts:
//
//  1. core/analysis entry points and nlp::keyword_voting_classifier are
//     pure functions of const inputs — calling them from many threads on
//     one shared database/classifier must be race-free.
//  2. query_engine stays consistent under mixed concurrent queries and
//     appends: every response's payload matches the version in its
//     envelope, never a torn intermediate state.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.h"
#include "nlp/classifier.h"
#include "nlp/dictionary.h"
#include "serve/engine.h"
#include "serve_test_util.h"

namespace avtk::serve {
namespace {

// hardware_concurrency() can be 1 in CI containers; the audit needs real
// interleaving, so thread counts are explicit.
constexpr int k_threads = 4;

TEST(ConcurrencyAudit, AnalysesAreThreadSafeOnConstDatabase) {
  const auto db = testing::make_test_database();
  const auto makers = dataset::database_view(db).manufacturers_present();

  // Single-threaded reference answers, compared against every thread's.
  const auto q1_ref = core::answer_q1(db, makers).median_dpm_spread;
  const auto q2_ref = core::answer_q2(db, makers).mean_automatic_fraction;
  const auto q4_ref = core::answer_q4(db, makers).overall_mean_s;
  const auto headlines_ref = core::evaluate_headlines(db, makers).size();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < k_threads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 3; ++i) {
        switch ((t + i) % 6) {
          case 0:
            if (core::answer_q1(db, makers).median_dpm_spread != q1_ref) ++mismatches;
            break;
          case 1:
            if (core::answer_q2(db, makers).mean_automatic_fraction != q2_ref) ++mismatches;
            break;
          case 2:
            if (core::answer_q3(db, makers).per_maker.empty()) ++mismatches;
            break;
          case 3:
            if (core::answer_q4(db, makers).overall_mean_s != q4_ref) ++mismatches;
            break;
          case 4:
            if (core::answer_q5(db, makers).reliability.empty()) ++mismatches;
            break;
          case 5:
            if (core::evaluate_headlines(db, makers).size() != headlines_ref) ++mismatches;
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyAudit, ClassifierIsThreadSafeAcrossCallers) {
  const nlp::keyword_voting_classifier classifier(nlp::failure_dictionary::builtin());
  const std::vector<std::string> descriptions = {
      "failed to detect pedestrian in crosswalk",
      "planner produced an unwanted maneuver near construction",
      "software crash in the perception module",
      "gps signal lost entering tunnel",
      "driver disengaged due to heavy rain on sensors",
  };
  // Reference verdicts, single-threaded.
  std::vector<nlp::fault_tag> expected;
  for (const auto& d : descriptions) expected.push_back(classifier.classify(d).tag);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < k_threads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const auto j = static_cast<std::size_t>(i) % descriptions.size();
        if (classifier.classify(descriptions[j]).tag != expected[j]) ++mismatches;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyAudit, EngineSurvivesMixedQueriesAndAppends) {
  query_engine engine(testing::make_test_database(), {.threads = k_threads});

  const std::vector<query_kind> kinds = {query_kind::metrics, query_kind::tags,
                                         query_kind::trend, query_kind::compare};
  std::atomic<int> bad_responses{0};
  std::vector<std::thread> threads;

  // Query threads: every response must be internally consistent — non-null
  // payload whose envelope version is one the database actually reached.
  for (int t = 0; t < k_threads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        query q;
        q.kind = kinds[static_cast<std::size_t>(t + i) % kinds.size()];
        const auto r = engine.execute(q);
        if (r.payload == nullptr || r.payload->empty()) ++bad_responses;
        if (r.version > engine.version()) ++bad_responses;  // version from the future
      }
    });
  }
  // Writer thread: interleaved appends across all three domains.
  threads.emplace_back([&] {
    using dataset::manufacturer;
    for (int i = 0; i < 10; ++i) {
      engine.commit_records({testing::make_disengagement(
          manufacturer::waymo, 2017, 1, nlp::fault_tag::software)}, {}, {});
      engine.commit_records({}, {testing::make_mileage(manufacturer::waymo, 2017, 1, 50.0)}, {});
      if (i % 3 == 0) {
        engine.commit_records({}, {}, {
            testing::make_accident(manufacturer::delphi, 2017, 1, 4.0, 6.0)});
      }
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_responses.load(), 0);

  // After the dust settles, the engine answers from a consistent final state.
  query q;
  q.kind = query_kind::metrics;
  const auto final_cold = engine.execute(q);
  const auto final_warm = engine.execute(q);
  EXPECT_EQ(*final_cold.payload, *final_warm.payload);
  EXPECT_EQ(final_warm.version, engine.version());
}

TEST(ConcurrencyAudit, SubmitFromManyThreadsIsSafe) {
  query_engine engine(testing::make_test_database(), {.threads = k_threads});
  std::vector<std::thread> producers;
  std::atomic<int> failures{0};
  for (int t = 0; t < k_threads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < 10; ++i) {
        query q;
        q.kind = (t + i) % 2 == 0 ? query_kind::tags : query_kind::modality;
        auto future = engine.submit(q);
        if (future.get().payload == nullptr) ++failures;
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace avtk::serve
