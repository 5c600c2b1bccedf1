// Cross-layout equivalence tests for the sharded snapshot store
// (serve/store.h, engine_config::shards): K = 1 and the naive reference
// (serve_reference.h) are the oracles, and a sharded engine must be
// byte-identical to both —
//
//  * every query kind (filters, mcf bands, nhpp horizons included), at K
//    in {2, 4, 7};
//  * across ingest interleavings: the same append / ingest_document stream
//    applied to both layouts keeps every payload, version vector and epoch
//    sum equal at every step;
//  * the composite version vector is consistent: the per-shard epochs
//    always sum to the reported epoch;
//  * sharded cache keys isolate makers: a maker-B entry survives a maker-A
//    ingest (and is correctly evicted under the single-store layout);
//  * a commit on one shard never waits for another shard's writer, and
//    clones only its own shard's slice;
//  * commits for different makers race safely, and each concurrent
//    ingest reports the epoch its own commit published — the Sharded*
//    stress tests join the CI TSan leg next to SnapshotStress
//    (AVTK_SNAPSHOT_STRESS cranks the load).
#include <gtest/gtest.h>

#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dataset/generator.h"
#include "dataset/report_writers.h"
#include "ingest/processor.h"
#include "serve/engine.h"
#include "serve/store.h"
#include "serve_reference.h"
#include "serve_test_util.h"

namespace avtk::serve {
namespace {

using dataset::manufacturer;

int stress_multiplier() {
  if (const char* v = std::getenv("AVTK_SNAPSHOT_STRESS"); v != nullptr) {
    if (const int m = std::atoi(v); m > 0) return m;
  }
  return 1;
}

constexpr std::size_t k_shard_counts[] = {2, 4, 7};

// Every query kind, each in an unfiltered and a maker-routed form, plus
// the filter / knob surface: year, tag, category, min_samples, mcf
// replicates + seed, nhpp horizon. Maker bosch has no records in the test
// database, so its queries exercise routing to an empty shard.
std::vector<query> query_suite() {
  std::vector<query> out;
  for (const auto kind : k_all_query_kinds) {
    query plain;
    plain.kind = kind;
    out.push_back(plain);
    for (const auto maker :
         {manufacturer::waymo, manufacturer::delphi, manufacturer::bosch}) {
      query q = plain;
      q.maker = maker;
      out.push_back(q);
    }
    query by_year = plain;
    by_year.year = 2016;
    out.push_back(by_year);
    query both = plain;
    both.maker = manufacturer::waymo;
    both.year = 2016;
    out.push_back(both);
  }
  query tagged;
  tagged.kind = query_kind::tags;
  tagged.tag = nlp::fault_tag::planner;
  out.push_back(tagged);
  query by_category;
  by_category.kind = query_kind::categories;
  by_category.category = nlp::category_of(nlp::fault_tag::planner);
  out.push_back(by_category);
  query fit_loose;
  fit_loose.kind = query_kind::fit;
  fit_loose.min_samples = 1;
  out.push_back(fit_loose);
  query mcf_seeded;
  mcf_seeded.kind = query_kind::mcf;
  mcf_seeded.replicates = 120;
  mcf_seeded.seed = 7;
  out.push_back(mcf_seeded);
  query nhpp_short;
  nhpp_short.kind = query_kind::nhpp;
  nhpp_short.horizon_miles = 5000.0;
  out.push_back(nhpp_short);
  return out;
}

engine_config single_threaded(std::size_t shards) {
  engine_config cfg;
  cfg.threads = 1;
  cfg.shards = shards;
  return cfg;
}

std::uint64_t epoch_vector_sum(const std::vector<std::uint64_t>& epochs) {
  std::uint64_t sum = 0;
  for (const auto e : epochs) sum += e;
  return sum;
}

// One oracle comparison: payload bytes, version vector and epoch sum must
// match, and the sharded response's per-shard epochs must sum to its
// epoch.
void expect_equivalent(query_engine& oracle, query_engine& sharded, const query& q,
                       const std::string& context) {
  const auto a = oracle.execute(q);
  const auto b = sharded.execute(q);
  ASSERT_NE(a.payload, nullptr) << context << " " << q.canonical();
  ASSERT_NE(b.payload, nullptr) << context << " " << q.canonical();
  EXPECT_EQ(*a.payload, *b.payload) << context << " " << q.canonical();
  EXPECT_EQ(a.version, b.version) << context << " " << q.canonical();
  EXPECT_EQ(a.epoch, b.epoch) << context << " " << q.canonical();
  EXPECT_EQ(epoch_vector_sum(b.epochs), b.epoch) << context << " " << q.canonical();
  EXPECT_EQ(b.epochs.size(), sharded.shards()) << context << " " << q.canonical();
}

dataset::generated_corpus& corpus() {
  static dataset::generated_corpus c = [] {
    dataset::generator_config cfg;
    cfg.seed = 626;
    cfg.quality = ocr::scan_quality::clean;
    return dataset::generate_corpus(cfg);
  }();
  return c;
}

// --- static equivalence: every kind at K in {2, 4, 7}, vs K = 1 and the reference ---

TEST(ShardedEquivalence, AllKindsByteIdenticalAcrossLayouts) {
  const auto suite = query_suite();
  const auto db = testing::make_test_database();
  query_engine oracle(db, single_threaded(1));
  for (const auto shards : k_shard_counts) {
    query_engine sharded(db, single_threaded(shards));
    ASSERT_EQ(sharded.shards(), shards);
    const std::string context = "K=" + std::to_string(shards);
    for (const auto& q : suite) {
      expect_equivalent(oracle, sharded, q, context);
      EXPECT_EQ(*sharded.execute(q).payload, testing::reference_payload(db, q))
          << context << " " << q.canonical();
    }
  }
}

// --- dynamic equivalence: the same append stream, compared step by step ---

TEST(ShardedEquivalence, AppendInterleavingsStayByteIdentical) {
  const auto suite = query_suite();
  for (const auto shards : k_shard_counts) {
    query_engine oracle(testing::make_test_database(), {.threads = 1, .shards = 1});
    query_engine sharded(testing::make_test_database(), {.threads = 1, .shards = shards});
    const std::string context = "append/K=" + std::to_string(shards);

    // A maker-interleaved stream touching every domain: records for five
    // makers (five distinct shards under K = 7, wrapping under K = 2) in
    // an order that never groups a shard's records together.
    const manufacturer stream[] = {manufacturer::waymo,  manufacturer::bosch,
                                   manufacturer::delphi, manufacturer::mercedes_benz,
                                   manufacturer::gm_cruise};
    int step = 0;
    for (int round = 0; round < 3; ++round) {
      for (const auto maker : stream) {
        switch (step++ % 3) {
          case 0: {
            const auto rec = testing::make_disengagement(maker, 2017, 1 + round,
                                                         nlp::fault_tag::software);
            oracle.commit_records({rec}, {}, {});
            sharded.commit_records({rec}, {}, {});
            break;
          }
          case 1: {
            const auto rec = testing::make_mileage(maker, 2017, 1 + round, 250.0);
            oracle.commit_records({}, {rec}, {});
            sharded.commit_records({}, {rec}, {});
            break;
          }
          case 2: {
            const auto rec = testing::make_accident(maker, 2017, 1 + round, 4.0, 6.0);
            oracle.commit_records({}, {}, {rec});
            sharded.commit_records({}, {}, {rec});
            break;
          }
        }
      }
      // After every round the two layouts must agree on every query.
      for (const auto& q : suite) expect_equivalent(oracle, sharded, q, context);
      EXPECT_EQ(oracle.epoch(), sharded.epoch()) << context;
      EXPECT_EQ(epoch_vector_sum(sharded.epochs()), sharded.epoch()) << context;
    }
  }
}

TEST(ShardedEquivalence, IngestDocumentMatchesSingleStore) {
  const auto suite = query_suite();
  query_engine oracle(testing::make_test_database(), {.threads = 1, .shards = 1});
  query_engine sharded(testing::make_test_database(), {.threads = 1, .shards = 4});

  // Stream the first few clean corpus documents through both layouts: the
  // per-document accounting, the epoch sum and every payload must agree
  // even when one document's records fan out over several shards.
  std::size_t ingested = 0;
  for (std::size_t i = 0; i < corpus().documents.size() && ingested < 5; ++i) {
    const auto a =
        oracle.ingest_document(corpus().documents[i], &corpus().pristine_documents[i]);
    const auto b =
        sharded.ingest_document(corpus().documents[i], &corpus().pristine_documents[i]);
    ASSERT_EQ(a.accepted(), b.accepted()) << "document " << i;
    if (!a.accepted()) continue;
    ++ingested;
    EXPECT_EQ(a.disengagements_added, b.disengagements_added) << "document " << i;
    EXPECT_EQ(a.mileage_added, b.mileage_added) << "document " << i;
    EXPECT_EQ(a.accidents_added, b.accidents_added) << "document " << i;
    EXPECT_EQ(a.version, b.version) << "document " << i;
    EXPECT_EQ(a.epoch, b.epoch) << "document " << i;
    EXPECT_EQ(epoch_vector_sum(b.epochs), b.epoch) << "document " << i;
  }
  ASSERT_GT(ingested, 0u) << "corpus has no clean documents";
  for (const auto& q : suite) expect_equivalent(oracle, sharded, q, "post-ingest/K=4");
}

// --- cache-key isolation ---

TEST(ShardedCache, WarmEntrySurvivesOtherShardIngest) {
  // delphi = enum 2 -> shard 2, waymo = enum 7 -> shard 3 under K = 4.
  query warm;
  warm.kind = query_kind::tags;
  warm.maker = manufacturer::delphi;
  const auto probe = testing::make_disengagement(manufacturer::waymo, 2017, 2,
                                                 nlp::fault_tag::sensor);

  query_engine sharded(testing::make_test_database(), {.threads = 1, .shards = 4});
  const auto cold = sharded.execute(warm);
  EXPECT_FALSE(cold.cache_hit);
  sharded.commit_records({probe}, {}, {});
  const auto after = sharded.execute(warm);
  EXPECT_TRUE(after.cache_hit) << "maker-A ingest evicted a maker-B entry";
  EXPECT_EQ(*cold.payload, *after.payload);

  // The single-store layout keys on the global domain version, so the
  // same sequence must evict — and recompute the identical payload.
  query_engine single(testing::make_test_database(), {.threads = 1, .shards = 1});
  const auto single_cold = single.execute(warm);
  single.commit_records({probe}, {}, {});
  const auto single_after = single.execute(warm);
  EXPECT_FALSE(single_after.cache_hit);
  EXPECT_EQ(*single_cold.payload, *single_after.payload);
  EXPECT_EQ(*after.payload, *single_after.payload);
}

TEST(ShardedCache, SameShardIngestStillEvicts) {
  query warm;
  warm.kind = query_kind::tags;
  warm.maker = manufacturer::waymo;

  query_engine engine(testing::make_test_database(), {.threads = 1, .shards = 4});
  engine.execute(warm);
  engine.commit_records({testing::make_disengagement(manufacturer::waymo, 2017, 2,
                                                          nlp::fault_tag::planner)}, {}, {});
  const auto after = engine.execute(warm);
  EXPECT_FALSE(after.cache_hit) << "same-shard ingest must evict its dependents";
}

// --- parallel commits: distinct shards never serialize ---

// A commit on shard A whose mutation blocks must not stop a commit on
// shard B from another thread. Under K = 1 both makers share the one
// writer mutex, so the same probe must find B still waiting, which proves
// the probe probes. No timing ratio: the bounded waits only keep a failure
// from hanging the suite.
TEST(ShardedStore, CommitsOnDistinctShardsDoNotSerialize) {
  const auto maker_a = manufacturer::waymo;   // shard 3 under K = 4
  const auto maker_b = manufacturer::delphi;  // shard 2 under K = 4
  for (const std::size_t shards : {4, 1}) {
    SCOPED_TRACE("K=" + std::to_string(shards));
    sharded_store store(testing::make_test_database(), shards);
    const auto sa = store.shard_for(maker_a);
    const auto sb = store.shard_for(maker_b);
    ASSERT_EQ(sa == sb, shards == 1);
    std::latch a_entered(1);
    std::latch release_a(1);
    std::thread holder([&] {
      store.commit(sa, [&](dataset::failure_database& db) {
        a_entered.count_down();
        release_a.wait();
        db.add_mileage(testing::make_mileage(maker_a, 2017, 2, 1.0));
      });
    });
    a_entered.wait();
    auto b_commit = std::async(std::launch::async, [&] {
      return store.commit(sb, [&](dataset::failure_database& db) {
        db.add_mileage(testing::make_mileage(maker_b, 2017, 2, 1.0));
      });
    });

    if (shards > 1) {
      const bool returned =
          b_commit.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
      EXPECT_TRUE(returned) << "a commit on shard B waited for shard A's writer";
      if (returned) {
        EXPECT_EQ(store.epochs()[sb], 1u) << "shard B did not publish while A was held";
        EXPECT_EQ(store.epochs()[sa], 0u);
        // The copy-on-write commit cloned shard B's slice only.
        const auto pinned = store.pin_shard(sb);
        const auto& db = pinned->db();
        for (const auto& r : db.disengagements()) EXPECT_EQ(shard_of(r.maker, shards), sb);
        for (const auto& r : db.mileage()) EXPECT_EQ(shard_of(r.maker, shards), sb);
        for (const auto& r : db.accidents()) EXPECT_EQ(shard_of(r.maker, shards), sb);
        EXPECT_LT(db.mileage().size(), testing::make_test_database().mileage().size());
      }
    } else {
      EXPECT_EQ(b_commit.wait_for(std::chrono::milliseconds(200)),
                std::future_status::timeout)
          << "the single writer mutex let a second commit through";
    }
    release_a.count_down();
    holder.join();
    EXPECT_EQ(b_commit.get()->epoch(), shards > 1 ? 1u : 2u);
    EXPECT_EQ(store.epoch(), 2u);
  }
}

// --- concurrency: per-maker commits race on different shards ---
// The CI TSan stress leg runs this alongside SnapshotStress (the filter
// includes Sharded*).

TEST(ShardedStress, ConcurrentIngestAcrossShardsAndQueries) {
  const int mult = stress_multiplier();
  const int writer_threads = 4;
  const int query_threads = 2;
  const int appends_per_thread = 30 * mult;
  const int queries_per_thread = 40 * mult;
  constexpr std::size_t shard_count = 4;

  // Distinct enum residues mod 4: each writer owns one shard.
  const manufacturer writer_makers[writer_threads] = {
      manufacturer::mercedes_benz, manufacturer::bosch, manufacturer::delphi,
      manufacturer::gm_cruise};

  query_engine engine(testing::make_test_database(),
                      {.threads = 2, .shards = shard_count});
  std::vector<std::thread> threads;
  for (int t = 0; t < writer_threads; ++t) {
    threads.emplace_back([&, t] {
      const auto maker = writer_makers[t];
      for (int i = 0; i < appends_per_thread; ++i) {
        switch (i % 3) {
          case 0:
            engine.commit_records({
                testing::make_disengagement(maker, 2017, 1, nlp::fault_tag::planner)}, {}, {});
            break;
          case 1:
            engine.commit_records({}, {testing::make_mileage(maker, 2017, 1, 5.0)}, {});
            break;
          case 2:
            engine.commit_records({}, {}, {testing::make_accident(maker, 2017, 1, 2.0, 3.0)});
            break;
        }
      }
    });
  }
  std::vector<int> empty_payloads(static_cast<std::size_t>(query_threads), 0);
  for (int t = 0; t < query_threads; ++t) {
    threads.emplace_back([&, t] {
      const query_kind kinds[] = {query_kind::metrics, query_kind::tags,
                                  query_kind::trend, query_kind::compare};
      std::uint64_t last_epoch = 0;
      for (int i = 0; i < queries_per_thread; ++i) {
        query q;
        q.kind = kinds[static_cast<std::size_t>(t + i) % std::size(kinds)];
        if (i % 2 == 1) q.maker = writer_makers[(t + i) % writer_threads];
        const auto r = engine.execute(q);
        if (r.payload == nullptr || r.payload->empty()) {
          ++empty_payloads[static_cast<std::size_t>(t)];
        }
        // A thread's pins are sequenced: the epoch sum never goes back.
        EXPECT_GE(r.epoch, last_epoch);
        last_epoch = r.epoch;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto n : empty_payloads) EXPECT_EQ(n, 0);

  // Every append landed as one epoch on its writer's own shard.
  const auto total = static_cast<std::uint64_t>(writer_threads) *
                     static_cast<std::uint64_t>(appends_per_thread);
  EXPECT_EQ(engine.epoch(), total);
  const auto epochs = engine.epochs();
  ASSERT_EQ(epochs.size(), shard_count);
  for (const auto e : epochs) {
    EXPECT_EQ(e, static_cast<std::uint64_t>(appends_per_thread));
  }

  // Final state answers cold/warm byte-identically.
  query q;
  q.kind = query_kind::metrics;
  const auto a = engine.execute(q);
  const auto b = engine.execute(q);
  EXPECT_EQ(*a.payload, *b.payload);
}

TEST(ShardedStress, ConcurrentIngestResponsesReportTheirOwnCommits) {
  // Two writers per shard under K = 4 (maker enum values 0/4, 1/5, 2/6,
  // 3/7), all eight on one shard under K = 1, more writers than cores: a
  // response that re-read the store after its commit could report another
  // writer's epoch.
  const manufacturer writer_makers[] = {
      manufacturer::mercedes_benz, manufacturer::nissan,     manufacturer::bosch,
      manufacturer::tesla,         manufacturer::delphi,     manufacturer::volkswagen,
      manufacturer::gm_cruise,     manufacturer::waymo};
  // Not scaled by AVTK_SNAPSHOT_STRESS: 250 rounds already take about a
  // minute under TSan.
  const int ingests_per_writer = 250;

  // One short accident report per writer, the same shape for every maker,
  // so the writers' scans take alike and their commits cluster.
  std::vector<ocr::document> docs;
  for (const auto maker : writer_makers) {
    docs.push_back(
        dataset::render_accident_report(testing::make_accident(maker, 2016, 3, 4.0, 9.0)));
  }

  for (const std::size_t shards : {1, 4}) {
    query_engine engine(testing::make_test_database(), single_threaded(shards));
    std::vector<std::vector<ingest_response>> responses(docs.size());
    // Rounds start together, so the writers' commits cluster.
    std::barrier round(static_cast<std::ptrdiff_t>(docs.size()));
    std::vector<std::thread> writers;
    for (std::size_t t = 0; t < docs.size(); ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < ingests_per_writer; ++i) {
          round.arrive_and_wait();
          responses[t].push_back(engine.ingest_document(docs[t]));
        }
      });
    }
    for (auto& w : writers) w.join();

    // Every commit published a distinct epoch on its shard, so if each
    // response reports its own commit, the reported (shard, epoch) pairs
    // are distinct and cover each shard's epochs 1..n exactly.
    const auto final_epochs = engine.epochs();
    std::set<std::pair<std::size_t, std::uint64_t>> seen;
    for (std::size_t t = 0; t < docs.size(); ++t) {
      const std::size_t home = shard_of(writer_makers[t], shards);
      for (const auto& r : responses[t]) {
        ASSERT_TRUE(r.accepted());
        ASSERT_EQ(r.epochs.size(), shards);
        EXPECT_EQ(epoch_vector_sum(r.epochs), r.epoch);
        EXPECT_GE(r.epochs[home], 1u);
        EXPECT_LE(r.epochs[home], final_epochs[home]);
        EXPECT_TRUE(seen.emplace(home, r.epochs[home]).second)
            << "K=" << shards << ": two responses reported shard " << home << " epoch "
            << r.epochs[home];
      }
    }
    EXPECT_EQ(seen.size(), docs.size() * static_cast<std::size_t>(ingests_per_writer));
    EXPECT_EQ(epoch_vector_sum(final_epochs), seen.size()) << "K=" << shards;
  }
}

}  // namespace
}  // namespace avtk::serve
