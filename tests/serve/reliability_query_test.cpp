// The reliability query kinds (mcf / nhpp) through the full serve stack:
// snapshot-pinned execution, byte-identical cold/warm payloads (including
// the seeded bootstrap bands), precise domain-mask invalidation, and the
// wire-protocol envelopes.
#include <gtest/gtest.h>

#include <string>

#include "obs/json.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve_test_util.h"

namespace avtk::serve {
namespace {

namespace json = obs::json;

query make_query(query_kind kind) {
  query q;
  q.kind = kind;
  return q;
}

const json::object& payload_object(const query_response& r) {
  static json::value parsed;  // keeps as_object()'s referent alive per call
  auto doc = json::parse(*r.payload);
  EXPECT_TRUE(doc.has_value());
  parsed = std::move(*doc);
  return parsed.as_object();
}

const json::value* find(const json::object& obj, std::string_view key) {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

TEST(ReliabilityQuery, McfColdWarmPayloadsAreByteIdentical) {
  query_engine engine(testing::make_test_database());
  const auto cold = engine.execute(make_query(query_kind::mcf));
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.canonical, "mcf?replicates=200&seed=42");

  const auto warm = engine.execute(make_query(query_kind::mcf));
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(*cold.payload, *warm.payload);

  // A second engine over the same data recomputes from scratch — the
  // seeded bootstrap makes even the confidence bands byte-identical.
  query_engine other(testing::make_test_database());
  const auto recomputed = other.execute(make_query(query_kind::mcf));
  EXPECT_FALSE(recomputed.cache_hit);
  EXPECT_EQ(*cold.payload, *recomputed.payload);
}

TEST(ReliabilityQuery, McfPayloadIsMonotonePerMaker) {
  query_engine engine(testing::make_test_database());
  const auto& payload = payload_object(engine.execute(make_query(query_kind::mcf)));
  const auto* makers = find(payload, "makers");
  ASSERT_NE(makers, nullptr);
  ASSERT_FALSE(makers->as_array().empty());
  for (const auto& row : makers->as_array()) {
    const auto* points = find(row.as_object(), "points");
    ASSERT_NE(points, nullptr);
    double prev = 0.0;
    for (const auto& p : points->as_array()) {
      const double mcf = find(p.as_object(), "mcf")->as_number();
      EXPECT_GE(mcf, prev);
      EXPECT_LE(find(p.as_object(), "lower")->as_number(),
                find(p.as_object(), "upper")->as_number());
      prev = mcf;
    }
  }
}

TEST(ReliabilityQuery, NhppPayloadBeatsBaselineAndExtrapolates) {
  query_engine engine(testing::make_test_database());
  query q = make_query(query_kind::nhpp);
  q.horizon_miles = 5000;
  const auto& payload = payload_object(engine.execute(q));
  const auto* makers = find(payload, "makers");
  ASSERT_NE(makers, nullptr);
  ASSERT_FALSE(makers->as_array().empty());
  for (const auto& row : makers->as_array()) {
    const auto& obj = row.as_object();
    const double hpp_ll = find(find(obj, "hpp")->as_object(), "log_likelihood")->as_number();
    const auto& pl = find(obj, "power_law")->as_object();
    EXPECT_TRUE(find(pl, "converged")->as_bool());
    EXPECT_GE(find(pl, "log_likelihood")->as_number(), hpp_ll - 1e-9);
    const auto& expected = find(obj, "expected_events")->as_object();
    EXPECT_DOUBLE_EQ(find(expected, "horizon_miles")->as_number(), 5000.0);
    EXPECT_GE(find(expected, "power_law")->as_number(), 0.0);
    const std::string preferred = find(obj, "preferred")->as_string();
    EXPECT_TRUE(preferred == "hpp" || preferred == "power_law" || preferred == "log_linear");
  }
}

TEST(ReliabilityQuery, MileageAppendInvalidatesBothKinds) {
  query_engine engine(testing::make_test_database());
  for (const auto kind : {query_kind::mcf, query_kind::nhpp}) {
    EXPECT_FALSE(engine.execute(make_query(kind)).cache_hit);
    EXPECT_TRUE(engine.execute(make_query(kind)).cache_hit);
  }
  const auto before = engine.version();
  engine.commit_records({}, {
      testing::make_mileage(dataset::manufacturer::waymo, 2017, 2, 900.0, "v3")}, {});
  for (const auto kind : {query_kind::mcf, query_kind::nhpp}) {
    const auto r = engine.execute(make_query(kind));
    EXPECT_FALSE(r.cache_hit) << query_kind_name(kind);
    EXPECT_EQ(r.version.mileage, before.mileage + 1);
  }
}

TEST(ReliabilityQuery, AccidentAppendLeavesCachedCurvesServing) {
  query_engine engine(testing::make_test_database());
  const auto cold_mcf = engine.execute(make_query(query_kind::mcf));
  const auto cold_nhpp = engine.execute(make_query(query_kind::nhpp));
  engine.commit_records({}, {}, {
      testing::make_accident(dataset::manufacturer::waymo, 2017, 1, 10.0, 10.0)});
  const auto warm_mcf = engine.execute(make_query(query_kind::mcf));
  const auto warm_nhpp = engine.execute(make_query(query_kind::nhpp));
  EXPECT_TRUE(warm_mcf.cache_hit);
  EXPECT_TRUE(warm_nhpp.cache_hit);
  EXPECT_EQ(*cold_mcf.payload, *warm_mcf.payload);
  EXPECT_EQ(*cold_nhpp.payload, *warm_nhpp.payload);
}

TEST(ReliabilityQuery, SeedAndReplicatesFragmentTheMcfCache) {
  query_engine engine(testing::make_test_database());
  query a = make_query(query_kind::mcf);
  a.seed = 1;
  query b = make_query(query_kind::mcf);
  b.seed = 2;
  EXPECT_NE(a.canonical(), b.canonical());
  EXPECT_FALSE(engine.execute(a).cache_hit);
  EXPECT_FALSE(engine.execute(b).cache_hit);  // distinct entry, not a hit
  EXPECT_TRUE(engine.execute(a).cache_hit);
}

TEST(ReliabilityQuery, ProtocolAnswersAndRejectsOverTheWire) {
  query_engine engine(testing::make_test_database());
  const auto ok = handle_request_line(engine, R"({"query": "nhpp", "id": 3})");
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(ok.find("\"id\":3"), std::string::npos);
  EXPECT_NE(ok.find("power_law"), std::string::npos);

  const auto bad = handle_request_line(engine, R"({"query": "nhpp", "horizon_miles": -1})");
  EXPECT_NE(bad.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(bad.find("horizon_miles"), std::string::npos);

  const auto mcf = handle_request_line(engine, R"({"query": "mcf", "maker": "waymo"})");
  EXPECT_NE(mcf.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(mcf.find("\"maker\":\"waymo\""), std::string::npos);
}

}  // namespace
}  // namespace avtk::serve
