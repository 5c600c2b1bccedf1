// The snapshot-pinned query index vs the naive filter-and-copy reference
// (serve_reference.h): byte-identical payloads for every filter edge case
// and after every epoch of an append/ingest stream at K in {1, 4}, exactly
// one lazy index build per epoch under concurrent first queries, and a
// rebuild on the post-ingest epoch. Extended indexes (each epoch's posting
// lists sharing an earlier epoch's prefix) select exactly what a fresh
// full build selects, across a seeded append stream with skipped epochs
// and a relabel, and under concurrent sibling extensions of one base.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dataset/generator.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/index.h"
#include "serve/store.h"
#include "serve_reference.h"
#include "serve_test_util.h"
#include "util/rng.h"

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

  engine.commit_records({testing::make_disengagement(
      manufacturer::waymo, 2016, 3, nlp::fault_tag::recognition_system)}, {}, {});
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
          e->commit_records({
              testing::make_disengagement(maker, 2016, month, nlp::fault_tag::planner)}, {}, {});
        } else if (step % 4 == 1) {
          e->commit_records({}, {testing::make_mileage(maker, 2016, month, 300.0)}, {});
        } else if (step % 4 == 2) {
          e->commit_records({}, {}, {testing::make_accident(maker, 2016, month, 3.0, 7.0)});
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

// --- extended indexes ---

// The CI TSan stress leg multiplies iteration counts via
// AVTK_SNAPSHOT_STRESS; tier-1 runs stay fast with the default of 1.
int stress_multiplier() {
  if (const char* v = std::getenv("AVTK_SNAPSHOT_STRESS"); v != nullptr) {
    if (const int m = std::atoi(v); m > 0) return m;
  }
  return 1;
}

const int k_years[] = {2014, 2015, 2016, 2017, 2018};

// One query per value of every filter axis, and one per value pair of
// every two axes.
std::vector<query> every_axis_query() {
  std::vector<std::function<void(query&, std::size_t)>> axes;
  std::vector<std::size_t> sizes;
  axes.emplace_back([](query& q, std::size_t i) { q.maker = dataset::k_all_manufacturers[i]; });
  sizes.push_back(dataset::k_all_manufacturers.size());
  axes.emplace_back([](query& q, std::size_t i) { q.year = k_years[i]; });
  sizes.push_back(std::size(k_years));
  axes.emplace_back([](query& q, std::size_t i) { q.tag = nlp::k_all_fault_tags[i]; });
  sizes.push_back(nlp::k_all_fault_tags.size());
  axes.emplace_back(
      [](query& q, std::size_t i) { q.category = static_cast<nlp::failure_category>(i); });
  sizes.push_back(3);

  std::vector<query> out;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    for (std::size_t i = 0; i < sizes[a]; ++i) {
      query q;
      q.kind = query_kind::metrics;
      axes[a](q, i);
      out.push_back(q);
      for (std::size_t b = a + 1; b < axes.size(); ++b) {
        for (std::size_t j = 0; j < sizes[b]; ++j) {
          query pair = q;
          axes[b](pair, j);
          out.push_back(pair);
        }
      }
    }
  }
  return out;
}

std::optional<std::vector<std::uint32_t>> records_of(const domain_selection& sel) {
  const auto span = sel.span();
  if (!span) return std::nullopt;
  return std::vector<std::uint32_t>(span->begin(), span->end());
}

// `idx` selects, for every query, exactly what a fresh full build over
// `db` selects.
void expect_matches_fresh_build(const query_index& idx, const dataset::failure_database& db,
                                const std::vector<query>& queries, int epoch) {
  const auto fresh = build_query_index(db, nullptr);
  for (const auto& q : queries) {
    const auto got = idx.select(q);
    const auto want = fresh->select(q);
    ASSERT_EQ(records_of(got.disengagements), records_of(want.disengagements))
        << "epoch " << epoch << " " << q.canonical();
    ASSERT_EQ(records_of(got.mileage), records_of(want.mileage))
        << "epoch " << epoch << " " << q.canonical();
    ASSERT_EQ(records_of(got.accidents), records_of(want.accidents))
        << "epoch " << epoch << " " << q.canonical();
  }
}

// Random records over every maker, year, tag and category; a fifth of
// the events are undated, so the year filter falls back to report_year.
void append_random(dataset::failure_database& db, avtk::rng& r) {
  const auto pick = [&r](std::size_t n) {
    return static_cast<std::size_t>(r.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto maker = [&] { return dataset::k_all_manufacturers[pick(12)]; };
  const auto year = [&] { return k_years[pick(std::size(k_years))]; };
  const auto month = [&] { return static_cast<int>(r.uniform_int(1, 12)); };
  for (auto n = r.uniform_int(0, 6); n > 0; --n) {
    auto d = testing::make_disengagement(maker(), year(), month(),
                                         nlp::k_all_fault_tags[pick(nlp::k_all_fault_tags.size())]);
    d.category = static_cast<nlp::failure_category>(pick(3));
    if (r.bernoulli(0.2)) d.event_month.reset();
    db.add_disengagement(std::move(d));
  }
  for (auto n = r.uniform_int(0, 3); n > 0; --n) {
    db.add_mileage(testing::make_mileage(maker(), year(), month(), 100.0));
  }
  for (auto n = r.uniform_int(0, 2); n > 0; --n) {
    auto a = testing::make_accident(maker(), year(), month(), 3.0, 5.0);
    if (r.bernoulli(0.2)) a.event_date.reset();
    db.add_accident(std::move(a));
  }
}

TEST(QueryIndex, ExtendedIndexMatchesFreshBuild) {
  const auto queries = every_axis_query();
  avtk::rng r(2024);
  snapshot_store store(testing::make_test_database());
  auto& extends = obs::metrics().get_counter("serve.index.extends");
  constexpr int k_epochs = 60;
  // One relabel lands on an epoch that is never indexed, one on an epoch
  // that is: either way the next build must fall back to a full one.
  const auto relabels = [](int epoch) { return epoch == 31 || epoch == 40; };
  bool relabelled = false;

  expect_matches_fresh_build(store.pin()->index(), store.pin()->db(), queries, 0);
  std::weak_ptr<const query_index> previous = store.pin()->index_base();
  for (int epoch = 1; epoch <= k_epochs; ++epoch) {
    const auto snap = store.commit([&](dataset::failure_database& db) {
      if (relabels(epoch)) {
        db.relabel_disengagement(db.disengagements().size() / 2, nlp::fault_tag::hang_crash,
                                 nlp::failure_category::system);
      }
      append_random(db, r);
    });
    // Some epochs never see a filtered query: their successor extends the
    // newest index built before them.
    relabelled |= relabels(epoch);
    if (epoch % 7 == 3) continue;
    const auto extends_before = extends.value();
    const auto& idx = snap->index();
    EXPECT_EQ(extends.value(), extends_before + (relabelled ? 0 : 1)) << "epoch " << epoch;
    relabelled = false;
    expect_matches_fresh_build(idx, snap->db(), queries, epoch);
    // Once built, the epoch holds no earlier index, and no index holds
    // another: the previous built index is gone with its snapshot.
    EXPECT_TRUE(previous.expired()) << "epoch " << epoch;
    previous = snap->index_base();
  }

  // The stream covered every value of every axis.
  const auto final_index = build_query_index(store.pin()->db(), nullptr);
  for (const auto& q : queries) {
    if ((q.maker.has_value() + q.year.has_value() + q.tag.has_value() +
         q.category.has_value()) != 1) {
      continue;
    }
    EXPECT_FALSE(final_index->select(q).disengagements.span()->empty()) << q.canonical();
  }
}

TEST(QueryIndex, ConcurrentSiblingExtensionsAgree) {
  // Two builds extend one base index at once. Whichever claims a shared
  // posting buffer first appends in place; the other must copy, never
  // write into slots the first one's lists read.
  const auto queries = every_axis_query();
  avtk::rng r(7);
  for (int round = 0; round < 4 * stress_multiplier(); ++round) {
    // In the store: the seed's index is built, epoch 1 is published and
    // not indexed, so epoch 2 inherits the same base.
    snapshot_store store(testing::make_test_database());
    store.pin()->index();
    const auto first = store.commit([&](dataset::failure_database& db) { append_random(db, r); });
    const auto second =
        store.commit([&](dataset::failure_database& db) { append_random(db, r); });
    std::thread a([&] { first->index(); });
    std::thread b([&] { second->index(); });
    a.join();
    b.join();
    expect_matches_fresh_build(first->index(), first->db(), queries, 1);
    expect_matches_fresh_build(second->index(), second->db(), queries, 2);

    // Two different append streams on one state: the same record
    // positions land under different keys, so an overwrite shows.
    const auto seed = testing::make_test_database();
    const auto base = build_query_index(seed, nullptr);
    auto left = seed;
    auto right = seed;
    for (int i = 0; i < 3; ++i) {
      append_random(left, r);
      append_random(right, r);
    }
    std::unique_ptr<const query_index> left_index;
    std::unique_ptr<const query_index> right_index;
    std::thread c([&] { left_index = build_query_index(left, nullptr, {}, base.get()); });
    std::thread d([&] { right_index = build_query_index(right, nullptr, {}, base.get()); });
    c.join();
    d.join();
    expect_matches_fresh_build(*left_index, left, queries, 1);
    expect_matches_fresh_build(*right_index, right, queries, 2);
  }
}

}  // namespace
}  // namespace avtk::serve
