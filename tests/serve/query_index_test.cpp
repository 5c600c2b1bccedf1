// The snapshot-pinned query index vs the naive filter-and-copy reference
// (serve_reference.h): byte-identical payloads for every filter edge case
// and after every epoch of an append/ingest stream at K in {1, 4}, exactly
// one lazy index build per epoch under concurrent first queries, and a
// rebuild on the post-ingest epoch.
#include <gtest/gtest.h>

#include <future>
#include <optional>
#include <string>
#include <vector>

#include "dataset/generator.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/index.h"
#include "serve_reference.h"
#include "serve_test_util.h"

namespace avtk::serve {
namespace {

using dataset::manufacturer;
using testing::reference_payload;

engine_config config(unsigned threads = 1, std::size_t shards = 1) {
  engine_config cfg;
  cfg.threads = threads;
  cfg.shards = shards;
  return cfg;
}

query_engine make(unsigned threads = 1) {
  return query_engine(testing::make_test_database(), config(threads));
}

// Execute `q` on a fresh engine (no cache crosstalk between cases) and
// require the reference's bytes.
void expect_matches_reference(const query& q) {
  auto engine = make();
  const auto r = engine.execute(q);
  ASSERT_NE(r.payload, nullptr) << q.canonical();
  EXPECT_EQ(*r.payload, reference_payload(testing::make_test_database(), q)) << q.canonical();
}

const std::vector<query_kind> k_filterable_kinds = {
    query_kind::metrics, query_kind::tags,  query_kind::categories, query_kind::modality,
    query_kind::trend,   query_kind::fit,   query_kind::compare,
};

TEST(QueryIndex, BackendsAgreeOnMakerAndYearSlices) {
  for (const auto kind : k_filterable_kinds) {
    query q;
    q.kind = kind;
    q.min_samples = 5;
    q.maker = manufacturer::waymo;
    expect_matches_reference(q);
    q.year = 2016;
    expect_matches_reference(q);
    q.maker = std::nullopt;
    expect_matches_reference(q);
  }
}

TEST(QueryIndex, BackendsAgreeOnYearFilterOverUndatedRecords) {
  // A disengagement with no event month falls back to its report year; an
  // accident with no event date does the same. The index and the reference
  // must bucket such records identically.
  auto db = testing::make_test_database();
  auto undated = testing::make_disengagement(manufacturer::waymo, 2016, 1,
                                             nlp::fault_tag::sensor);
  undated.event_month = std::nullopt;
  undated.report_year = 2016;
  db.add_disengagement(undated);
  auto undated_accident = testing::make_accident(manufacturer::delphi, 2016, 2, 4.0, 9.0);
  undated_accident.event_date = std::nullopt;
  undated_accident.report_year = 2016;
  db.add_accident(undated_accident);

  for (const auto exec_year : {2016, 2017}) {
    query q;
    q.kind = query_kind::metrics;
    q.year = exec_year;
    query_engine engine(db, config());
    EXPECT_EQ(*engine.execute(q).payload, reference_payload(db, q)) << q.canonical();
  }
}

TEST(QueryIndex, BackendsAgreeOnCombinedTagAndCategory) {
  query q;
  q.kind = query_kind::tags;
  q.tag = nlp::fault_tag::planner;
  q.category = nlp::category_of(nlp::fault_tag::planner);
  expect_matches_reference(q);
  // Contradictory combination: tag present, category that tag is not in.
  q.category = nlp::failure_category::system;
  expect_matches_reference(q);
}

TEST(QueryIndex, BackendsAgreeOnZeroMatchFilters) {
  query q;
  q.kind = query_kind::metrics;
  q.year = 1999;  // no records anywhere near
  expect_matches_reference(q);

  query q2;
  q2.kind = query_kind::tags;
  q2.tag = nlp::fault_tag::network;  // tag absent from the test database
  expect_matches_reference(q2);
}

TEST(QueryIndex, BackendsAgreeOnAbsentMaker) {
  // bmw has zero records in the test database: the index has no posting
  // list for it, the reference copies nothing.
  for (const auto kind : k_filterable_kinds) {
    query q;
    q.kind = kind;
    q.min_samples = 5;
    q.maker = manufacturer::bmw;
    expect_matches_reference(q);
  }
}

TEST(QueryIndex, ConcurrentFirstQueriesShareOneBuild) {
  auto& builds = obs::metrics().get_counter("serve.index.builds");
  const auto before = builds.value();

  auto engine = make(4);
  constexpr int k_threads = 8;
  std::vector<std::future<std::string>> results;
  results.reserve(k_threads);
  for (int t = 0; t < k_threads; ++t) {
    results.push_back(std::async(std::launch::async, [&engine, t] {
      query q;
      q.kind = query_kind::tags;
      q.maker = t % 2 == 0 ? manufacturer::waymo : manufacturer::delphi;
      return *engine.execute(q).payload;
    }));
  }
  for (auto& r : results) EXPECT_FALSE(r.get().empty());
  // Every thread raced the same lazy once-per-epoch build; exactly one won.
  EXPECT_EQ(builds.value(), before + 1);
}

TEST(QueryIndex, PostIngestEpochRebuildsIndex) {
  auto& builds = obs::metrics().get_counter("serve.index.builds");
  auto engine = make();

  query q;
  q.kind = query_kind::tags;
  q.maker = manufacturer::waymo;
  const auto first = engine.execute(q);
  const auto base = builds.value();

  engine.append_disengagement(testing::make_disengagement(
      manufacturer::waymo, 2016, 3, nlp::fault_tag::recognition_system));
  const auto after = engine.execute(q);
  EXPECT_FALSE(after.cache_hit);  // the append invalidated the cached slice
  EXPECT_EQ(builds.value(), base + 1);  // fresh epoch, fresh index
  EXPECT_NE(*first.payload, *after.payload);

  // Repeating the query hits the cache: no further builds.
  const auto warm = engine.execute(q);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(builds.value(), base + 1);
}

TEST(QueryIndex, SelectMatchesNaiveOracleRecordSets) {
  // Structural check below the payload layer: the index's selections,
  // applied as a view, see exactly the records the reference copies.
  const auto db = testing::make_test_database();
  const auto idx = build_query_index(db, nullptr);

  query q;
  q.kind = query_kind::metrics;
  q.maker = manufacturer::delphi;
  q.year = 2016;
  const auto sel = idx->select(q);
  const auto view = sel.view(db);
  EXPECT_TRUE(view.restricted());
  for (const auto& d : view.disengagements()) {
    EXPECT_EQ(d.maker, manufacturer::delphi);
    EXPECT_EQ(disengagement_year(d), 2016);
  }
  for (const auto& m : view.mileage()) {
    EXPECT_EQ(m.maker, manufacturer::delphi);
    EXPECT_EQ(m.month.year, 2016);
  }
  for (const auto& a : view.accidents()) {
    EXPECT_EQ(a.maker, manufacturer::delphi);
    EXPECT_EQ(accident_year(a), 2016);
  }
  EXPECT_GT(view.total_disengagements(), 0);
  EXPECT_GT(idx->bytes(), 0u);
}

// Every kind under each filter axis and their combinations, including a
// maker with no records (bosch) and a tag-only filter.
std::vector<query> filtered_queries() {
  std::vector<query> out;
  for (const auto kind : k_all_query_kinds) {
    query q;
    q.kind = kind;
    q.min_samples = 5;
    for (const auto maker : {manufacturer::waymo, manufacturer::delphi, manufacturer::bosch}) {
      q.maker = maker;
      out.push_back(q);
    }
    q.year = 2016;
    out.push_back(q);  // bosch + 2016
    q.maker = manufacturer::waymo;
    out.push_back(q);
    q.maker = std::nullopt;
    out.push_back(q);  // year only
    q.year = std::nullopt;
    q.tag = nlp::fault_tag::planner;
    out.push_back(q);
    q.tag = std::nullopt;
    q.category = nlp::category_of(nlp::fault_tag::planner);
    out.push_back(q);
  }
  return out;
}

TEST(QueryIndex, EpochReplayMatchesReference) {
  // One stream of appends and document ingests; after every epoch each
  // filtered query's payload, cached or rebuilt on a fresh index, must
  // equal the reference over the same records. At K = 1 those are the
  // engine's own pinned records; at K = 4 they are a K = 1 engine's, fed
  // the same stream — so the sharded layout is checked against K = 1 and
  // the reference at once.
  dataset::generator_config gen;
  gen.seed = 626;
  gen.quality = ocr::scan_quality::clean;
  const auto corpus = dataset::generate_corpus(gen);
  const auto queries = filtered_queries();
  const manufacturer makers[] = {manufacturer::waymo, manufacturer::bosch, manufacturer::delphi};

  for (const std::size_t shards : {1, 4}) {
    query_engine single(testing::make_test_database(), config());
    query_engine engine(testing::make_test_database(), config(1, shards));
    const auto check = [&](int step) {
      const auto pinned = (shards == 1 ? engine : single).snapshot();
      for (const auto& q : queries) {
        const auto r = engine.execute(q);
        EXPECT_EQ(*r.payload, reference_payload(pinned->db(), q))
            << "K=" << shards << " step " << step << " " << q.canonical();
      }
    };
    check(0);
    std::size_t doc = 0;
    std::size_t accepted = 0;
    for (int step = 1; step <= 8; ++step) {
      const auto maker = makers[static_cast<std::size_t>(step) % std::size(makers)];
      const int month = step % 6 + 1;
      for (auto* e : {&single, &engine}) {
        if (step % 4 == 0) {
          e->append_disengagement(
              testing::make_disengagement(maker, 2016, month, nlp::fault_tag::planner));
        } else if (step % 4 == 1) {
          e->append_mileage(testing::make_mileage(maker, 2016, month, 300.0));
        } else if (step % 4 == 2) {
          e->append_accident(testing::make_accident(maker, 2016, month, 3.0, 7.0));
        } else if (e->ingest_document(corpus.documents[doc], &corpus.pristine_documents[doc])
                       .accepted()) {
          ++accepted;
        }
      }
      if (step % 4 == 3) ++doc;
      check(step);
    }
    ASSERT_GT(accepted, 0u) << "the stream ingested no document";
  }
}

}  // namespace
}  // namespace avtk::serve
