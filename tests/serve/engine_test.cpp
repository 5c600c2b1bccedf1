// query_engine integration tests against a hand-built database: cold/warm
// byte equality, dependency-aware invalidation on append, determinism for
// any worker-pool width, LRU eviction at capacity, and filter semantics.
#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "obs/json.h"
#include "serve/engine.h"
#include "serve_test_util.h"

namespace avtk::serve {
namespace {

namespace json = obs::json;
using dataset::manufacturer;

query make_query(query_kind kind) {
  query q;
  q.kind = kind;
  return q;
}

const std::vector<query_kind> k_all_kinds = {
    query_kind::metrics, query_kind::tags,  query_kind::categories, query_kind::modality,
    query_kind::trend,   query_kind::fit,   query_kind::compare,
};

TEST(QueryEngine, EveryKindProducesValidJsonPayload) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  for (const auto kind : k_all_kinds) {
    auto q = make_query(kind);
    q.min_samples = 5;  // the hand-built db has ~12 reaction times per maker
    const auto r = engine.execute(q);
    ASSERT_NE(r.payload, nullptr) << q.canonical();
    const auto doc = json::parse(*r.payload);
    ASSERT_TRUE(doc.has_value()) << q.canonical() << ": " << *r.payload;
    EXPECT_TRUE(doc->is_object());
    EXPECT_FALSE(r.cache_hit);
  }
}

TEST(QueryEngine, WarmResultsAreByteIdenticalToCold) {
  query_engine engine(testing::make_test_database(), {.threads = 2});
  for (const auto kind : k_all_kinds) {
    auto q = make_query(kind);
    q.min_samples = 5;
    const auto cold = engine.execute(q);
    const auto warm = engine.execute(q);
    EXPECT_FALSE(cold.cache_hit);
    EXPECT_TRUE(warm.cache_hit) << q.canonical();
    EXPECT_EQ(*cold.payload, *warm.payload) << q.canonical();
    EXPECT_EQ(cold.version, warm.version);
    // The warm path hands back the cached string itself, not a copy.
    EXPECT_EQ(cold.payload.get(), warm.payload.get());
  }
}

TEST(QueryEngine, AppendInvalidatesOnlyDependentResults) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  const auto tags = make_query(query_kind::tags);        // depends on d only
  const auto metrics = make_query(query_kind::metrics);  // depends on d+m+a

  const auto tags_cold = engine.execute(tags);
  const auto metrics_cold = engine.execute(metrics);
  ASSERT_FALSE(tags_cold.cache_hit);
  ASSERT_FALSE(metrics_cold.cache_hit);

  // An accident touches neither the tag mix nor its cache entry...
  engine.commit_records({}, {}, {testing::make_accident(manufacturer::waymo, 2016, 6, 9.0, 9.0)});
  EXPECT_TRUE(engine.execute(tags).cache_hit);
  // ...but reliability metrics must recompute, and must see the new count.
  const auto metrics_after = engine.execute(metrics);
  EXPECT_FALSE(metrics_after.cache_hit);
  EXPECT_NE(*metrics_after.payload, *metrics_cold.payload);
  EXPECT_EQ(metrics_after.version.accidents, metrics_cold.version.accidents + 1);

  // A new disengagement invalidates both.
  engine.commit_records({testing::make_disengagement(
      manufacturer::waymo, 2016, 6, nlp::fault_tag::sensor)}, {}, {});
  EXPECT_FALSE(engine.execute(tags).cache_hit);
  EXPECT_FALSE(engine.execute(metrics).cache_hit);
}

TEST(QueryEngine, AppendedRecordsEnterTheAnalysis) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  query q = make_query(query_kind::tags);
  q.maker = manufacturer::delphi;
  q.tag = nlp::fault_tag::network;
  const auto before = engine.execute(q);

  engine.commit_records({testing::make_disengagement(
      manufacturer::delphi, 2016, 3, nlp::fault_tag::network)}, {}, {});
  const auto after = engine.execute(q);
  EXPECT_NE(*before.payload, *after.payload);
  EXPECT_NE(after.payload->find("network"), std::string::npos);
}

TEST(QueryEngine, ResultsAreIdenticalForAnyThreadCount) {
  // The reference: a single-threaded engine.
  query_engine reference(testing::make_test_database(), {.threads = 1});
  std::vector<std::string> expected;
  for (const auto kind : k_all_kinds) {
    auto q = make_query(kind);
    q.min_samples = 5;
    expected.push_back(*reference.execute(q).payload);
  }

  for (const unsigned threads : {2u, 4u, 8u}) {
    query_engine engine(testing::make_test_database(), {.threads = threads});
    // Submit everything at once so execution genuinely overlaps.
    std::vector<std::future<query_response>> futures;
    for (int repeat = 0; repeat < 3; ++repeat) {
      for (const auto kind : k_all_kinds) {
        auto q = make_query(kind);
        q.min_samples = 5;
        futures.push_back(engine.submit(q));
      }
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(*futures[i].get().payload, expected[i % expected.size()])
          << "threads=" << threads << " request=" << i;
    }
  }
}

TEST(QueryEngine, LruEvictionAtConfiguredCapacity) {
  engine_config cfg;
  cfg.threads = 1;
  cfg.cache_capacity = 2;
  cfg.cache_shards = 1;  // exact LRU
  query_engine engine(testing::make_test_database(), cfg);

  const auto tags = make_query(query_kind::tags);
  const auto categories = make_query(query_kind::categories);
  const auto modality = make_query(query_kind::modality);

  engine.execute(tags);
  engine.execute(categories);
  EXPECT_TRUE(engine.execute(tags).cache_hit);  // refresh: categories is LRU
  engine.execute(modality);                     // evicts categories
  EXPECT_EQ(engine.cache_evictions(), 1u);
  EXPECT_TRUE(engine.execute(tags).cache_hit);
  EXPECT_TRUE(engine.execute(modality).cache_hit);
  EXPECT_FALSE(engine.execute(categories).cache_hit);
  EXPECT_LE(engine.cache_size(), 2u);
}

TEST(QueryEngine, FiltersNarrowTheAnalyzedRecords) {
  query_engine engine(testing::make_test_database(), {.threads = 1});

  // Tag filter: the only surviving fraction is the filtered tag, at 1.0.
  query by_tag = make_query(query_kind::tags);
  by_tag.maker = manufacturer::waymo;
  by_tag.tag = nlp::fault_tag::software;
  const auto doc = json::parse(*engine.execute(by_tag).payload);
  ASSERT_TRUE(doc.has_value());
  const auto& makers = doc->find("makers")->as_array();
  ASSERT_EQ(makers.size(), 1u);
  const auto* fractions = makers[0].find("fractions");
  ASSERT_NE(fractions, nullptr);
  ASSERT_EQ(fractions->as_object().size(), 1u);
  EXPECT_EQ(fractions->as_object()[0].first, "software");
  EXPECT_DOUBLE_EQ(fractions->as_object()[0].second.as_number(), 1.0);

  // Year filter: 2017 trend only contains 2017 months.
  query trend_2017 = make_query(query_kind::trend);
  trend_2017.year = 2017;
  const auto trend_doc = json::parse(*engine.execute(trend_2017).payload);
  ASSERT_TRUE(trend_doc.has_value());
  for (const auto& maker_row : trend_doc->find("makers")->as_array()) {
    for (const auto& month : maker_row.find("months")->as_array()) {
      EXPECT_EQ(month.find("month")->as_string().substr(0, 4), "2017");
    }
  }

  // Maker filter: only that maker's rows appear.
  query delphi_metrics = make_query(query_kind::metrics);
  delphi_metrics.maker = manufacturer::delphi;
  const auto metrics_doc = json::parse(*engine.execute(delphi_metrics).payload);
  ASSERT_TRUE(metrics_doc.has_value());
  const auto& rows = metrics_doc->find("makers")->as_array();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].find("maker")->as_string(), "delphi");
}

TEST(QueryEngine, VersionReflectsAppends) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  const auto v0 = engine.version();
  engine.commit_records({}, {testing::make_mileage(manufacturer::waymo, 2017, 2, 100.0)}, {});
  engine.commit_records({}, {}, {testing::make_accident(manufacturer::delphi, 2017, 2, 3.0, 4.0)});
  const auto v1 = engine.version();
  EXPECT_EQ(v1.disengagements, v0.disengagements);
  EXPECT_EQ(v1.mileage, v0.mileage + 1);
  EXPECT_EQ(v1.accidents, v0.accidents + 1);
}

}  // namespace
}  // namespace avtk::serve
