// serve/query.h unit tests: wire-name round-trips, canonicalization,
// dependency masks, strict JSON parsing, and version-qualified cache keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>

#include "serve/query.h"

namespace avtk::serve {
namespace {

// Property test over EVERY kind: the registry list is the single source of
// truth, so a kind added there automatically joins every assertion below.
TEST(QueryKind, NamesRoundTrip) {
  std::set<std::string_view> names;
  for (const auto k : k_all_query_kinds) {
    const auto name = query_kind_name(k);
    EXPECT_TRUE(names.insert(name).second) << "duplicate wire name " << name;
    const auto parsed = query_kind_from_string(name);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  // The registry is dense over the enum: kinds are declared contiguously
  // from 0, so the list's size equals one past the last listed value. A
  // kind appended to the enum but not the list breaks this.
  std::size_t max_value = 0;
  for (const auto k : k_all_query_kinds) {
    max_value = std::max(max_value, static_cast<std::size_t>(k));
  }
  EXPECT_EQ(std::size(k_all_query_kinds), max_value + 1);
  EXPECT_FALSE(query_kind_from_string("headlines").has_value());
  EXPECT_FALSE(query_kind_from_string("").has_value());
}

// Every kind round-trips through the JSON parser and canonicalizes with
// its wire name as the prefix — and identically for the bare query.
TEST(QueryKind, EveryKindParsesAndCanonicalizes) {
  for (const auto k : k_all_query_kinds) {
    const std::string name(query_kind_name(k));
    const auto q = parse_query("{\"query\": \"" + name + "\"}");
    ASSERT_TRUE(q.has_value()) << name;
    EXPECT_EQ(q->kind, k);
    EXPECT_EQ(q->canonical().substr(0, name.size()), name);
    query bare;
    bare.kind = k;
    EXPECT_EQ(q->canonical(), bare.canonical()) << name;
    // Each kind reads at least one domain, and only known domains.
    const auto deps = q->dependencies();
    EXPECT_NE(deps, 0) << name;
    EXPECT_EQ(deps & ~(domain_disengagements | domain_mileage | domain_accidents), 0);
  }
}

TEST(QueryCanonical, FieldsAppearInFixedOrder) {
  query q;
  q.kind = query_kind::tags;
  q.year = 2016;
  q.maker = dataset::manufacturer::waymo;
  q.tag = nlp::fault_tag::software;
  EXPECT_EQ(q.canonical(), "tags?maker=waymo&year=2016&tag=software");
}

TEST(QueryCanonical, BareQueryIsJustTheKind) {
  query q;
  q.kind = query_kind::compare;
  EXPECT_EQ(q.canonical(), "compare");
}

TEST(QueryCanonical, MinSamplesOnlyAffectsFitKeys) {
  query tags;
  tags.kind = query_kind::tags;
  tags.min_samples = 7;  // irrelevant to tags: must not fragment the key
  query tags_default;
  tags_default.kind = query_kind::tags;
  EXPECT_EQ(tags.canonical(), tags_default.canonical());

  query fit;
  fit.kind = query_kind::fit;
  fit.min_samples = 7;
  EXPECT_EQ(fit.canonical(), "fit?min_samples=7");
}

TEST(QueryCanonical, ReliabilityKnobsOnlyAffectTheirKinds) {
  query mcf;
  mcf.kind = query_kind::mcf;
  EXPECT_EQ(mcf.canonical(), "mcf?replicates=200&seed=42");
  mcf.maker = dataset::manufacturer::waymo;
  mcf.replicates = 500;
  mcf.seed = 7;
  EXPECT_EQ(mcf.canonical(), "mcf?maker=waymo&replicates=500&seed=7");

  query nhpp;
  nhpp.kind = query_kind::nhpp;
  EXPECT_EQ(nhpp.canonical(), "nhpp?horizon_miles=10000");
  nhpp.horizon_miles = 50000;
  EXPECT_EQ(nhpp.canonical(), "nhpp?horizon_miles=50000");

  // The knobs of one reliability kind must not fragment the other's keys
  // (or any non-reliability kind's).
  query tags;
  tags.kind = query_kind::tags;
  tags.replicates = 500;
  tags.seed = 7;
  tags.horizon_miles = 50000;
  EXPECT_EQ(tags.canonical(), "tags");
}

TEST(ParseQuery, ParsesReliabilityFields) {
  const auto mcf = parse_query(R"({"query": "mcf", "replicates": 300, "seed": 9})");
  ASSERT_TRUE(mcf.has_value());
  EXPECT_EQ(mcf->replicates, 300);
  EXPECT_EQ(mcf->seed, 9u);

  const auto nhpp = parse_query(R"({"query": "nhpp", "horizon_miles": 250000})");
  ASSERT_TRUE(nhpp.has_value());
  EXPECT_EQ(nhpp->horizon_miles, 250000.0);

  EXPECT_FALSE(parse_query(R"({"query": "mcf", "replicates": 10})").has_value());
  EXPECT_FALSE(parse_query(R"({"query": "mcf", "seed": -1})").has_value());
  query_parse_error error;
  EXPECT_FALSE(parse_query(R"({"query": "nhpp", "horizon_miles": -1})", &error).has_value());
  EXPECT_NE(error.message.find("horizon_miles"), std::string::npos);
}

TEST(QueryDependencies, MatchDomainsEachKindReads) {
  const auto deps_of = [](query_kind k, std::optional<dataset::manufacturer> maker = {}) {
    query q;
    q.kind = k;
    q.maker = maker;
    return q.dependencies();
  };
  // Unfiltered breakdowns list every maker present in disengagements or
  // mileage (mileage-only makers as all-zero rows); a maker filter fixes
  // the row set.
  for (const auto kind : {query_kind::tags, query_kind::categories, query_kind::modality}) {
    EXPECT_EQ(deps_of(kind), domain_disengagements | domain_mileage);
    EXPECT_EQ(deps_of(kind, dataset::manufacturer::waymo), domain_disengagements);
  }
  EXPECT_EQ(deps_of(query_kind::fit), domain_disengagements);
  EXPECT_EQ(deps_of(query_kind::trend), domain_disengagements | domain_mileage);
  // Reliability curves are built from disengagement counts over the mileage
  // ledger; accidents never enter, so accident appends must not evict them.
  EXPECT_EQ(deps_of(query_kind::mcf), domain_disengagements | domain_mileage);
  EXPECT_EQ(deps_of(query_kind::nhpp), domain_disengagements | domain_mileage);
  EXPECT_EQ(deps_of(query_kind::metrics),
            domain_disengagements | domain_mileage | domain_accidents);
  EXPECT_EQ(deps_of(query_kind::compare),
            domain_disengagements | domain_mileage | domain_accidents);
}

TEST(ParseQuery, AcceptsFullRequest) {
  const auto q = parse_query(
      R"({"query": "fit", "maker": "Waymo", "year": 2016, "min_samples": 5, "id": "r1"})");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->kind, query_kind::fit);
  EXPECT_EQ(q->maker, dataset::manufacturer::waymo);
  EXPECT_EQ(q->year, 2016);
  EXPECT_EQ(q->min_samples, 5u);
}

TEST(ParseQuery, RejectsMalformedRequests) {
  query_parse_error error;
  EXPECT_FALSE(parse_query("not json", &error).has_value());
  EXPECT_FALSE(parse_query("[1, 2]", &error).has_value());
  EXPECT_FALSE(parse_query(R"({"maker": "waymo"})", &error).has_value());
  EXPECT_NE(error.message.find("'query'"), std::string::npos);
  EXPECT_FALSE(parse_query(R"({"query": "tags", "yeear": 2016})", &error).has_value());
  EXPECT_NE(error.message.find("yeear"), std::string::npos);
  EXPECT_FALSE(parse_query(R"({"query": "tags", "maker": "acme"})").has_value());
  EXPECT_FALSE(parse_query(R"({"query": "tags", "year": 2016.5})").has_value());
  EXPECT_FALSE(parse_query(R"({"query": "tags", "year": 1800})").has_value());
  EXPECT_FALSE(parse_query(R"({"query": "fit", "min_samples": 0})").has_value());
  EXPECT_FALSE(parse_query(R"({"query": "tags", "tag": "gremlins"})").has_value());
}

TEST(ParseQuery, ParsesTagAndCategorySpellings) {
  const auto by_id = parse_query(R"({"query": "tags", "tag": "recognition_system"})");
  ASSERT_TRUE(by_id.has_value());
  EXPECT_EQ(by_id->tag, nlp::fault_tag::recognition_system);
  const auto by_name = parse_query(R"({"query": "categories", "category": "ML/Design"})");
  ASSERT_TRUE(by_name.has_value());
  EXPECT_EQ(by_name->category, nlp::failure_category::ml_design);
}

// min_samples and seed are cast to 64-bit unsigned integers. A double at or
// above 2^64 has no such value (the cast would be undefined), so it is a
// parse error naming the knob; every value below keeps its answer.
TEST(QueryParse, MinSamplesAtOrAbove2Pow64IsOutOfRange) {
  for (const char* n : {"1e300", "1e20", "18446744073709551616", "18446744073709551615",
                        "1e999"}) {
    query_parse_error error;
    EXPECT_FALSE(
        parse_query(std::string(R"({"query": "fit", "min_samples": )") + n + "}", &error))
        << n;
    EXPECT_EQ(error.message, "'min_samples' out of range") << n;
  }
  const auto largest = parse_query(R"({"query": "fit", "min_samples": 18446744073709549568})");
  ASSERT_TRUE(largest.has_value());
  EXPECT_EQ(largest->min_samples, std::size_t{18446744073709549568u});
  EXPECT_EQ(largest->canonical(), "fit?min_samples=18446744073709549568");
}

TEST(QueryParse, SeedAtOrAbove2Pow64IsOutOfRange) {
  for (const char* n : {"1e30", "1e300", "18446744073709551616", "1e999"}) {
    query_parse_error error;
    EXPECT_FALSE(parse_query(std::string(R"({"query": "mcf", "seed": )") + n + "}", &error))
        << n;
    EXPECT_EQ(error.message, "'seed' out of range") << n;
  }
  // Below 2^64 a seed still parses, "-0" and exponent forms included.
  EXPECT_EQ(parse_query(R"({"query": "mcf", "seed": 1e19})")->seed, 10000000000000000000u);
  EXPECT_EQ(parse_query(R"({"query": "mcf", "seed": -0})")->seed, 0u);
  EXPECT_EQ(parse_query(R"({"query": "mcf", "seed": 7e0})")->canonical(),
            "mcf?replicates=200&seed=7");
}

TEST(QueryParse, KnobErrorsKeepTheirPrecedence) {
  query_parse_error error;
  // The type check comes first, then the range, then the next member.
  EXPECT_FALSE(parse_query(R"({"query": "fit", "min_samples": -1e300})", &error));
  EXPECT_EQ(error.message, "'min_samples' must be a positive integer");
  EXPECT_FALSE(parse_query(R"({"query": "mcf", "seed": -1e300})", &error));
  EXPECT_EQ(error.message, "'seed' must be a non-negative integer");
  EXPECT_FALSE(parse_query(R"({"query": "mcf", "seed": 1e300, "bogus": 1})", &error));
  EXPECT_EQ(error.message, "'seed' out of range");
  // A query kind that ignores the knob still range-checks it.
  EXPECT_FALSE(parse_query(R"({"query": "tags", "min_samples": 1e300})", &error));
  EXPECT_EQ(error.message, "'min_samples' out of range");
}

TEST(CacheKey, CarriesOnlyDependentVersionComponents) {
  const dataset::database_version v{3, 7, 9};
  query tags;
  tags.kind = query_kind::tags;
  tags.maker = dataset::manufacturer::waymo;
  EXPECT_EQ(cache_key(tags, v), "tags?maker=waymo@s0:d3");

  query trend;
  trend.kind = query_kind::trend;
  EXPECT_EQ(cache_key(trend, v), "trend@s0:d3m7");

  query metrics;
  metrics.kind = query_kind::metrics;
  EXPECT_EQ(cache_key(metrics, v), "metrics@s0:d3m7a9");
}

TEST(CacheKey, AccidentBumpLeavesDisengagementKeysUntouched) {
  query tags;
  tags.kind = query_kind::tags;
  const dataset::database_version before{3, 7, 9};
  const dataset::database_version after{3, 7, 10};
  EXPECT_EQ(cache_key(tags, before), cache_key(tags, after));

  query metrics;
  metrics.kind = query_kind::metrics;
  EXPECT_NE(cache_key(metrics, before), cache_key(metrics, after));
}

TEST(DatabaseVersion, BumpsPerDomain) {
  dataset::failure_database db;
  EXPECT_EQ(db.version(), (dataset::database_version{0, 0, 0}));
  db.add_disengagement({});
  db.add_disengagement({});
  db.add_mileage({});
  db.add_accident({});
  EXPECT_EQ(db.version(), (dataset::database_version{2, 1, 1}));
  EXPECT_EQ(db.version().to_string(), "d2.m1.a1");
}

}  // namespace
}  // namespace avtk::serve
