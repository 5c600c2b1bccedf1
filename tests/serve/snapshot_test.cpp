// Snapshot-isolation semantics tests for serve's epoch-published store
// (serve/store.h) and its integration into query_engine:
//
//  * a reader pinned before a commit keeps answering against the
//    pre-commit epoch, with the matching version vector;
//  * a commit shares untouched domains structurally (no deep copy) and
//    bumps only the touched domains' versions;
//  * rejected ingests publish nothing — no epoch, no version bump, the
//    published snapshot pointer itself is unchanged;
//  * superseded epochs are reclaimed exactly when the last pinned reader
//    drops (leak-checked under the ASan CI leg);
//  * epoch and version stay monotone and mutually consistent under
//    concurrent commits, ingests and queries, at K = 1 and K = 4 shards
//    (per-shard epochs at K = 4) — the stress test doubles as
//    the CI TSan leg's workhorse (AVTK_SNAPSHOT_STRESS cranks the load);
//  * readers walking pinned epochs never see a chunk change while commits
//    append and relabel on top of the chunks they share.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dataset/generator.h"
#include "ingest/processor.h"
#include "inject/corruptor.h"
#include "serve/engine.h"
#include "serve/store.h"
#include "serve_test_util.h"

namespace avtk::serve {
namespace {

using dataset::manufacturer;

// The CI TSan stress leg multiplies thread iteration counts via
// AVTK_SNAPSHOT_STRESS; tier-1 runs stay fast with the default of 1.
int stress_multiplier() {
  if (const char* v = std::getenv("AVTK_SNAPSHOT_STRESS"); v != nullptr) {
    if (const int m = std::atoi(v); m > 0) return m;
  }
  return 1;
}

query make_query(query_kind kind) {
  query q;
  q.kind = kind;
  return q;
}

// A clean-quality corpus shared by the ingest-path tests (same shape as
// the serve ingest suite: raw wire documents that scan strictly).
dataset::generated_corpus& corpus() {
  static dataset::generated_corpus c = [] {
    dataset::generator_config cfg;
    cfg.seed = 626;
    cfg.quality = ocr::scan_quality::clean;
    return dataset::generate_corpus(cfg);
  }();
  return c;
}

// --- store semantics ---

TEST(SnapshotStore, PinnedReaderSeesPreCommitEpoch) {
  snapshot_store store(testing::make_test_database());
  const auto pinned = store.pin();
  const auto v0 = pinned->version();
  const auto disengagements_before = pinned->db().disengagements().size();

  store.commit([](dataset::failure_database& db) {
    db.add_disengagement(testing::make_disengagement(manufacturer::waymo, 2017, 2,
                                                     nlp::fault_tag::software));
  });

  // The pinned snapshot is frozen: same version vector, same records.
  EXPECT_EQ(pinned->version(), v0);
  EXPECT_EQ(pinned->db().disengagements().size(), disengagements_before);
  EXPECT_EQ(pinned->epoch(), 0u);

  // The published snapshot moved on.
  const auto current = store.pin();
  EXPECT_EQ(current->epoch(), 1u);
  EXPECT_EQ(current->version().disengagements, v0.disengagements + 1);
  EXPECT_EQ(current->db().disengagements().size(), disengagements_before + 1);
}

// How many leading chunks two arrays hold in common (same pointers).
template <typename T>
std::size_t shared_chunk_prefix(const dataset::chunked_array<T>& a,
                                const dataset::chunked_array<T>& b) {
  std::size_t k = 0;
  while (k < a.chunk_count() && k < b.chunk_count() && a.chunk_at(k) == b.chunk_at(k)) ++k;
  return k;
}

TEST(SnapshotStore, CommitSharesUntouchedDomainsStructurally) {
  // The touched domain spans two full chunks and a partly filled tail.
  auto seed = testing::make_test_database();
  const std::size_t chunk = dataset::chunked_array<dataset::accident_record>::chunk_size;
  while (seed.accidents().size() < 2 * chunk + 5) {
    seed.add_accident(testing::make_accident(manufacturer::waymo, 2016, 2, 4.0, 6.0));
  }
  snapshot_store store(std::move(seed));
  const auto before = store.pin();
  const auto after = store.commit([](dataset::failure_database& db) {
    db.add_accident(testing::make_accident(manufacturer::delphi, 2017, 3, 7.0, 9.0));
  });

  // Untouched domains share every chunk — a commit must not deep-copy
  // what it does not write.
  const auto& dis = before->db().disengagements();
  const auto& mil = before->db().mileage();
  ASSERT_EQ(after->db().disengagements().chunk_count(), dis.chunk_count());
  ASSERT_EQ(after->db().mileage().chunk_count(), mil.chunk_count());
  EXPECT_EQ(shared_chunk_prefix(dis, after->db().disengagements()), dis.chunk_count());
  EXPECT_EQ(shared_chunk_prefix(mil, after->db().mileage()), mil.chunk_count());
  // The touched domain shares all but its tail, which the append cloned.
  const auto& acc = before->db().accidents();
  ASSERT_EQ(acc.chunk_count(), 3u);
  ASSERT_EQ(after->db().accidents().chunk_count(), 3u);
  EXPECT_EQ(shared_chunk_prefix(acc, after->db().accidents()), 2u);

  EXPECT_EQ(after->db().accidents().size(), before->db().accidents().size() + 1);
  EXPECT_EQ(after->version().accidents, before->version().accidents + 1);
  EXPECT_EQ(after->version().disengagements, before->version().disengagements);
  EXPECT_EQ(after->version().mileage, before->version().mileage);
}

TEST(SnapshotStore, CommitReturnsTheSnapshotItPublished) {
  snapshot_store store(testing::make_test_database());
  const auto committed = store.commit([](dataset::failure_database& db) {
    db.add_mileage(testing::make_mileage(manufacturer::waymo, 2017, 2, 42.0));
  });
  EXPECT_EQ(committed.get(), store.pin().get());
  EXPECT_EQ(committed->epoch(), 1u);
}

TEST(SnapshotStore, SupersededEpochReclaimsWhenLastReaderDrops) {
  snapshot_store store(testing::make_test_database());
  auto pinned = store.pin();
  std::weak_ptr<const store_snapshot> superseded = pinned;

  store.commit([](dataset::failure_database& db) {
    db.add_accident(testing::make_accident(manufacturer::waymo, 2017, 1, 1.0, 2.0));
  });
  // Still pinned by a reader: must stay alive even though it left service.
  EXPECT_FALSE(superseded.expired());

  // Last reader drops: the epoch frees right there (ASan's leak check in
  // the sanitized CI leg proves nothing lingers).
  pinned.reset();
  EXPECT_TRUE(superseded.expired());
}

TEST(SnapshotStore, EpochAndVersionsMonotoneUnderConcurrentCommits) {
  snapshot_store store(testing::make_test_database());
  const int threads = 4;
  const int commits_per_thread = 25 * stress_multiplier();

  std::vector<std::thread> writers;
  for (int t = 0; t < threads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < commits_per_thread; ++i) {
        switch ((t + i) % 3) {
          case 0:
            store.commit([](dataset::failure_database& db) {
              db.add_disengagement(testing::make_disengagement(
                  manufacturer::waymo, 2017, 1, nlp::fault_tag::planner));
            });
            break;
          case 1:
            store.commit([](dataset::failure_database& db) {
              db.add_mileage(testing::make_mileage(manufacturer::delphi, 2017, 1, 5.0));
            });
            break;
          case 2:
            store.commit([](dataset::failure_database& db) {
              db.add_accident(
                  testing::make_accident(manufacturer::delphi, 2017, 1, 2.0, 3.0));
            });
            break;
        }
      }
    });
  }
  std::vector<std::uint64_t> observed;
  std::thread reader([&] {
    for (int i = 0; i < 200 * stress_multiplier(); ++i) {
      observed.push_back(store.pin()->epoch());
    }
  });
  for (auto& w : writers) w.join();
  reader.join();

  // Every commit landed as exactly one epoch, bumping exactly one domain
  // version: the total version delta equals the commit count.
  const auto total = static_cast<std::uint64_t>(threads) *
                     static_cast<std::uint64_t>(commits_per_thread);
  EXPECT_EQ(store.epoch(), total);
  const auto v = store.pin()->version();
  const auto v0 = testing::make_test_database().version();
  EXPECT_EQ((v.disengagements + v.mileage + v.accidents) -
                (v0.disengagements + v0.mileage + v0.accidents),
            total);

  // A single reader observes a non-decreasing epoch sequence.
  for (std::size_t i = 1; i < observed.size(); ++i) {
    ASSERT_GE(observed[i], observed[i - 1]);
  }
}

// Readers walk pinned epochs while a writer commits appends and relabels
// on top of them: every commit shares all but the chunks it writes, so a
// reader must see its epoch's records unchanged for as long as it pins it.
// The CI TSan leg runs this (a write to a chunk a reader still reads is a
// race it reports).
TEST(ChunkedArray, SharedChunksUnderConcurrentCommits) {
  const auto tagged = [](std::size_t i) {
    auto d = testing::make_disengagement(manufacturer::waymo, 2017, 1 + static_cast<int>(i % 12),
                                         nlp::fault_tag::planner);
    d.description = "event " + std::to_string(i);
    return d;
  };
  dataset::failure_database seed;
  for (std::size_t i = 0; i < 300; ++i) seed.add_disengagement(tagged(i));
  snapshot_store store(std::move(seed));

  const int commits = 60 * stress_multiplier();
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int c = 0; c < commits; ++c) {
      store.commit([&](dataset::failure_database& db) {
        const std::size_t n = db.disengagements().size();
        for (std::size_t i = n; i < n + 5; ++i) db.add_disengagement(tagged(i));
        if (c % 4 == 0) {
          db.relabel_disengagement((static_cast<std::size_t>(c) * 37) % n,
                                   nlp::fault_tag::software,
                                   nlp::category_of(nlp::fault_tag::software));
        }
      });
    }
    done = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done) {
        const auto snap = store.pin();
        const auto& dis = snap->db().disengagements();
        std::size_t i = 0;
        std::size_t relabelled = 0;
        for (const auto& d : dis) {
          ASSERT_EQ(d.description, "event " + std::to_string(i));
          ASSERT_EQ(dis.id(i), i);
          relabelled += d.tag == nlp::fault_tag::software ? 1 : 0;
          ++i;
        }
        // The pinned epoch is frozen: a second walk sees the same records.
        std::size_t again = 0;
        for (const auto& d : dataset::database_view(snap->db()).disengagements()) {
          again += d.tag == nlp::fault_tag::software ? 1 : 0;
        }
        ASSERT_EQ(again, relabelled);
        ASSERT_EQ(snap->version().disengagements, dis.size() + (snap->epoch() + 3) / 4);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(store.pin()->db().disengagements().size(), 300u + 5u * static_cast<std::size_t>(commits));
}

// --- engine semantics ---

TEST(SnapshotSemantics, PinnedSnapshotAnswersPreCommitAcrossAppend) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  const auto pinned = engine.snapshot();
  const auto v0 = pinned->version();

  engine.commit_records({
      testing::make_disengagement(manufacturer::waymo, 2017, 1, nlp::fault_tag::sensor)}, {}, {});

  // A query that pinned before the append keeps computing against the
  // pre-commit epoch; the engine's published state moved on.
  EXPECT_EQ(pinned->version(), v0);
  EXPECT_EQ(engine.version().disengagements, v0.disengagements + 1);
  EXPECT_EQ(engine.snapshot()->epoch(), pinned->epoch() + 1);
}

TEST(SnapshotSemantics, ResponseVersionAndEpochMatchThePinnedSnapshot) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  const auto r0 = engine.execute(make_query(query_kind::metrics));
  EXPECT_EQ(r0.epoch, 0u);
  EXPECT_EQ(r0.version, engine.version());

  engine.commit_records({}, {}, {testing::make_accident(manufacturer::waymo, 2017, 1, 3.0, 4.0)});
  const auto r1 = engine.execute(make_query(query_kind::metrics));
  EXPECT_EQ(r1.epoch, 1u);
  EXPECT_EQ(r1.version.accidents, r0.version.accidents + 1);
}

TEST(SnapshotSemantics, RejectedIngestPublishesNoEpoch) {
  auto docs = corpus().documents;
  auto pristine = corpus().pristine_documents;
  inject::injection_config icfg;
  icfg.seed = 23;
  icfg.fraction = 0.05;
  const auto report = inject::inject_faults(docs, pristine, icfg);
  ASSERT_FALSE(report.faults.empty());

  query_engine engine(testing::make_test_database(), {.threads = 1});
  const auto before = engine.snapshot();

  const auto& fault = report.faults.front();
  const auto r = engine.ingest_document(docs[fault.index], &pristine[fault.index]);
  ASSERT_FALSE(r.accepted());

  // No commit happened: the very snapshot object is still published.
  EXPECT_EQ(engine.snapshot().get(), before.get());
  EXPECT_EQ(engine.epoch(), before->epoch());
  EXPECT_EQ(r.epoch, before->epoch());
  EXPECT_EQ(r.version, before->version());
}

TEST(SnapshotSemantics, AcceptedIngestIsOneEpoch) {
  query_engine engine(testing::make_test_database(), {.threads = 1});
  const auto epoch_before = engine.epoch();

  // First clean multi-record document: the whole append must land as a
  // single epoch, never a per-record stream of intermediate states.
  const ingest::document_processor probe{ingest::processor_config{}};
  for (std::size_t i = 0; i < corpus().documents.size(); ++i) {
    const auto p = probe.process(corpus().documents[i], &corpus().pristine_documents[i], i);
    if (!p.accepted()) continue;
    if (p.disengagements.size() + p.mileage.size() + p.accidents.size() < 2) continue;
    const auto r =
        engine.ingest_document(corpus().documents[i], &corpus().pristine_documents[i]);
    ASSERT_TRUE(r.accepted());
    ASSERT_GT(r.disengagements_added + r.mileage_added + r.accidents_added, 1u);
    EXPECT_EQ(r.epoch, epoch_before + 1);
    EXPECT_EQ(engine.epoch(), epoch_before + 1);
    return;
  }
  FAIL() << "corpus has no clean multi-record document";
}

struct stress_sample {
  std::uint64_t epoch;
  std::vector<std::uint64_t> epochs;
  dataset::database_version version;
};

// The mixed-workload stress: N ingest threads × M query threads against
// `engine`. Every response must carry a payload; returns each query
// thread's (epoch, per-shard epochs, version) samples in issue order.
std::vector<std::vector<stress_sample>> run_ingest_query_mix(query_engine& engine) {
  const int mult = stress_multiplier();
  const int query_threads = 3;
  const int ingest_threads = 2;
  const int queries_per_thread = 40 * mult;
  const int documents_per_thread = 6 * mult;

  const std::vector<query_kind> kinds = {query_kind::metrics, query_kind::tags,
                                         query_kind::trend, query_kind::compare};

  std::vector<std::vector<stress_sample>> samples(static_cast<std::size_t>(query_threads));
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < query_threads; ++t) {
    threads.emplace_back([&, t] {
      auto& mine = samples[static_cast<std::size_t>(t)];
      for (int i = 0; i < queries_per_thread; ++i) {
        query q;
        q.kind = kinds[static_cast<std::size_t>(t + i) % kinds.size()];
        const auto r = engine.execute(q);
        if (r.payload == nullptr || r.payload->empty()) ++failures;
        mine.push_back({r.epoch, r.epochs, r.version});
      }
    });
  }
  for (int t = 0; t < ingest_threads; ++t) {
    threads.emplace_back([&, t] {
      const auto& docs = corpus().documents;
      const auto& pristine = corpus().pristine_documents;
      for (int i = 0; i < documents_per_thread; ++i) {
        const auto j =
            static_cast<std::size_t>(t * documents_per_thread + i) % docs.size();
        engine.ingest_document(docs[j], &pristine[j]);
        engine.commit_records({}, {testing::make_mileage(manufacturer::waymo, 2017, 3, 1.0)}, {});
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  return samples;
}

// K = 1. One epoch, one version vector: the mapping must be a function, and
// monotone — and each thread must have seen epochs in non-decreasing
// order (its pins are sequenced).
void expect_epochs_consistent(const std::vector<std::vector<stress_sample>>& samples) {
  std::map<std::uint64_t, dataset::database_version> by_epoch;
  for (const auto& thread_samples : samples) {
    std::uint64_t last_epoch = 0;
    for (const auto& s : thread_samples) {
      ASSERT_GE(s.epoch, last_epoch) << "thread observed a past epoch";
      last_epoch = s.epoch;
      const auto [it, inserted] = by_epoch.emplace(s.epoch, s.version);
      ASSERT_EQ(it->second, s.version)
          << "two responses at epoch " << s.epoch << " reported different versions";
      (void)inserted;
    }
  }
  const dataset::database_version* prev = nullptr;
  for (const auto& [epoch, version] : by_epoch) {
    if (prev != nullptr) {
      ASSERT_GE(version.disengagements, prev->disengagements);
      ASSERT_GE(version.mileage, prev->mileage);
      ASSERT_GE(version.accidents, prev->accidents);
    }
    prev = &version;
  }
}

// K > 1. The epoch is a sum, so two different cuts can share it: key on the
// per-shard epochs instead. (epochs -> version) must be a function, and each
// thread must see every shard's epoch and every version component
// non-decreasing.
void expect_shard_cuts_consistent(const std::vector<std::vector<stress_sample>>& samples,
                                  std::size_t shards) {
  std::map<std::vector<std::uint64_t>, dataset::database_version> by_cut;
  for (const auto& thread_samples : samples) {
    const stress_sample* last = nullptr;
    for (const auto& s : thread_samples) {
      ASSERT_EQ(s.epochs.size(), shards);
      const auto [it, inserted] = by_cut.emplace(s.epochs, s.version);
      ASSERT_EQ(it->second, s.version)
          << "two responses at one per-shard cut reported different versions";
      (void)inserted;
      if (last != nullptr) {
        for (std::size_t i = 0; i < shards; ++i) {
          ASSERT_GE(s.epochs[i], last->epochs[i]) << "thread observed a past epoch on shard " << i;
        }
        ASSERT_GE(s.version.disengagements, last->version.disengagements);
        ASSERT_GE(s.version.mileage, last->version.mileage);
        ASSERT_GE(s.version.accidents, last->version.accidents);
      }
      last = &s;
    }
  }
}

// The CI TSan leg hammers this with AVTK_SNAPSHOT_STRESS > 1.
TEST(SnapshotStress, ConcurrentIngestAndQueries) {
  for (const std::size_t shards : {1, 4}) {
    SCOPED_TRACE("K=" + std::to_string(shards));
    query_engine engine(testing::make_test_database(), {.threads = 2, .shards = shards});
    const auto samples = run_ingest_query_mix(engine);
    if (shards == 1) {
      expect_epochs_consistent(samples);
    } else {
      expect_shard_cuts_consistent(samples, shards);
    }

    // Final state is consistent: a cold/warm pair agrees byte-for-byte.
    query q;
    q.kind = query_kind::metrics;
    const auto a = engine.execute(q);
    const auto b = engine.execute(q);
    EXPECT_EQ(*a.payload, *b.payload);
    EXPECT_EQ(b.version, engine.version());
  }
}

}  // namespace
}  // namespace avtk::serve
