// database_view::vehicle_months(maker) against the original join
// (vehicle_month_reference.h), cell by cell and bit for bit: same cells in
// the same order, miles compared by memcmp, the same attributed counts.
// The fixtures are seeded random databases built to reach every branch of
// the attribution rule: redacted ids on both sides, duplicate mileage rows
// of one cell, events in months without mileage, undated events, zero-mile
// cells, months whose equal shares tie across many vehicles, and ids
// longer than the small-string buffer that share long prefixes. Each
// fixture is read through all three view modes: whole, selection and
// pointer list.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "dataset/generator.h"
#include "dataset/view.h"
#include "vehicle_month_reference.h"

namespace avtk::dataset {
namespace {

using testing::reference_vehicle_months;

constexpr manufacturer k_fixture_makers[] = {manufacturer::waymo, manufacturer::bosch,
                                             manufacturer::nissan};

struct fixture_rng {
  std::mt19937_64 engine;
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(engine() % n); }
  bool one_in(std::size_t n) { return below(n) == 0; }
};

year_month fixture_month(fixture_rng& rng, std::size_t span) {
  const auto index = 2016 * 12 + static_cast<std::int64_t>(rng.below(span));
  return year_month::from_index(index);
}

failure_database random_fixture(std::uint64_t seed) {
  fixture_rng rng{std::mt19937_64(seed)};
  std::vector<std::string> ids;
  const std::size_t vehicles = 1 + rng.below(24);
  for (std::size_t i = 0; i < vehicles; ++i) {
    switch (rng.below(3)) {
      case 0: ids.push_back("v" + std::to_string(i)); break;
      // Past the small-string buffer, sharing all but the last characters.
      case 1: ids.push_back("CA-DMV-TESTFLEET-VEHICLE-" + std::to_string(i)); break;
      default: ids.push_back("CA-DMV-TESTFLEET-VEHICLE-" + std::to_string(i) + "-B"); break;
    }
  }
  const auto maker_of = [&] { return k_fixture_makers[rng.below(std::size(k_fixture_makers))]; };

  failure_database db;
  std::vector<mileage_record> rows;
  const std::size_t row_count = rng.below(120);
  for (std::size_t i = 0; i < row_count; ++i) {
    if (!rows.empty() && rng.one_in(8)) {
      // A duplicate row of an earlier cell, with its own miles.
      auto dup = rows[rng.below(rows.size())];
      dup.miles = static_cast<double>(rng.below(4000)) / 7.0;
      rows.push_back(dup);
      continue;
    }
    mileage_record m;
    m.maker = maker_of();
    m.vehicle_id = rng.one_in(20) ? std::string() : ids[rng.below(ids.size())];
    m.month = fixture_month(rng, 6);
    m.report_year = m.month.year;
    m.miles = rng.one_in(6) ? 0.0 : static_cast<double>(rng.below(100000)) / 13.0;
    rows.push_back(m);
  }
  for (auto& m : rows) db.add_mileage(std::move(m));

  const std::size_t event_count = rng.below(300);
  for (std::size_t i = 0; i < event_count; ++i) {
    disengagement_record d;
    d.maker = maker_of();
    d.report_year = 2016;
    switch (rng.below(6)) {
      case 0: break;  // redacted
      case 1: d.vehicle_id = "ghost-" + std::to_string(rng.below(3)); break;
      default: d.vehicle_id = ids[rng.below(ids.size())]; break;
    }
    // Eight months against mileage's six, so some events fall in months
    // without mileage.
    const auto month = fixture_month(rng, 8);
    const auto dating = rng.below(6);
    if (dating == 1 || dating == 2) {
      d.event_date = date{month.year, month.month, static_cast<std::uint8_t>(1 + rng.below(28))};
    } else if (dating > 2) {
      d.event_month = month;
    }  // 0: undated
    d.description = "kernel fixture event";
    db.add_disengagement(std::move(d));
  }
  return db;
}

// Ascending random subset of [0, n).
selection random_selection(fixture_rng& rng, std::size_t n) {
  selection sel;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!rng.one_in(3)) sel.push_back(i);
  }
  return sel;
}

// A random subset of the domain's records as pointers, in shuffled order.
template <typename T>
std::vector<const T*> random_pointers(fixture_rng& rng, const chunked_array<T>& records) {
  std::vector<const T*> out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!rng.one_in(4)) out.push_back(&records[i]);
  }
  std::shuffle(out.begin(), out.end(), rng.engine);
  return out;
}

struct coverage {
  std::size_t cells = 0;
  std::size_t zero_mile_cells = 0;
  std::size_t long_id_cells = 0;
  std::size_t redacted_cells = 0;
  long long events = 0;
};

void expect_same_cells(const std::vector<vehicle_month>& got,
                       const std::vector<vehicle_month>& want, const std::string& where,
                       coverage& seen) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& g = got[i];
    const auto& w = want[i];
    EXPECT_EQ(g.maker, w.maker) << where << " cell " << i;
    EXPECT_EQ(g.vehicle_id, w.vehicle_id) << where << " cell " << i;
    EXPECT_EQ(g.month, w.month) << where << " cell " << i;
    EXPECT_EQ(std::memcmp(&g.miles, &w.miles, sizeof(double)), 0)
        << where << " cell " << i << ": " << g.miles << " vs " << w.miles;
    EXPECT_EQ(g.disengagements, w.disengagements) << where << " cell " << i;
    ++seen.cells;
    if (!(w.miles > 0)) ++seen.zero_mile_cells;
    if (w.vehicle_id.size() > 15) ++seen.long_id_cells;
    if (w.vehicle_id.empty()) ++seen.redacted_cells;
    seen.events += w.disengagements;
  }
}

void expect_matches_reference(const database_view& view, const std::string& where,
                              coverage& seen) {
  std::vector<vehicle_month> all;
  for (const auto maker : k_all_manufacturers) {
    auto want = reference_vehicle_months(view, maker);
    expect_same_cells(view.vehicle_months(maker), want,
                      where + " maker " + std::string(manufacturer_short_name(maker)), seen);
    all.insert(all.end(), want.begin(), want.end());
  }
  coverage ignored;
  expect_same_cells(view.vehicle_months(), all, where + " all makers", ignored);
}

TEST(VehicleMonthKernel, MatchesReference) {
  coverage seen;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const auto db = random_fixture(seed);
    const auto tag = "seed " + std::to_string(seed);
    expect_matches_reference(database_view(db), tag + " whole", seen);

    fixture_rng rng{std::mt19937_64(seed ^ 0x5EEDull)};
    const auto dis = random_selection(rng, db.disengagements().size());
    const auto mil = random_selection(rng, db.mileage().size());
    const database_view selected(db, std::span<const std::uint32_t>(dis),
                                 std::span<const std::uint32_t>(mil), std::nullopt);
    expect_matches_reference(selected, tag + " selection", seen);

    const auto dis_ptrs = random_pointers(rng, db.disengagements());
    const auto mil_ptrs = random_pointers(rng, db.mileage());
    const database_view composed(dis_ptrs, mil_ptrs, {});
    expect_matches_reference(composed, tag + " pointer list", seen);
  }
  // The fixtures reached what they were built to reach.
  EXPECT_GT(seen.cells, 5000u);
  EXPECT_GT(seen.zero_mile_cells, 100u);
  EXPECT_GT(seen.long_id_cells, 1000u);
  EXPECT_GT(seen.redacted_cells, 50u);
  EXPECT_GT(seen.events, 10000);
}

TEST(VehicleMonthKernel, MatchesReferenceOnGeneratedCorpus) {
  generator_config cfg;
  cfg.seed = 7;
  const auto db = generate_corpus(cfg).to_database();
  coverage seen;
  expect_matches_reference(database_view(db), "generated corpus", seen);
  EXPECT_GT(seen.cells, 1000u);
}

}  // namespace
}  // namespace avtk::dataset
