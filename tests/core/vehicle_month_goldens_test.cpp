// Vehicle-month goldens: pins every builder that reads the vehicle-month
// attribution join (dataset/view.h) byte-for-byte on the seed-7 corpus —
// the join itself, per-car DPM over all years and per calendar year, the
// monthly fleet trend, Fig. 8's pooled pairs, the §V-C2 spells, and the
// fleet and per-VIN event positions of the recurrent-events extraction.
// Every number is rendered with %.17g and folded into an FNV-1a digest per
// builder, covering every manufacturer in enum order. Only arithmetic
// outputs are hashed (no MLE or Nelder-Mead fits), so the digests hold
// across compilers.
//
// If one of these hashes changes, a builder's output changed — that is a
// behavior change, not a refactor, and needs its own review.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/exposure.h"
#include "core/figures.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "dataset/generator.h"
#include "reliability/events.h"

namespace {

using namespace avtk;
using dataset::k_all_manufacturers;
using dataset::manufacturer;

// FNV-1a 64-bit over a stream of rendered values.
struct digest {
  std::uint64_t h = 14695981039346656037ull;

  void bytes(const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  void num(double x) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g;", x);
    bytes(buf);
  }
  void integer(long long x) { bytes(std::to_string(x) + ";"); }
  void nums(const std::vector<double>& xs) {
    integer(static_cast<long long>(xs.size()));
    for (const double x : xs) num(x);
  }
  std::string hex() const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

// The seed-7 corpus through Stage I-III, as bench_paper and the CLI build it.
const dataset::failure_database& corpus_db() {
  static const auto result = [] {
    dataset::generator_config cfg;
    cfg.seed = 7;
    const auto corpus = dataset::generate_corpus(cfg);
    core::pipeline_config pcfg;
    pcfg.parallelism = 4;
    return core::run_pipeline(corpus.documents, corpus.pristine_documents, pcfg);
  }();
  return result.database;
}

void add_cell(digest& d, const dataset::vehicle_month& vm) {
  d.integer(static_cast<long long>(vm.maker));
  d.bytes(vm.vehicle_id + ";");
  d.integer(vm.month.index());
  d.num(vm.miles);
  d.integer(vm.disengagements);
}

TEST(VehicleMonthGoldens, VehicleMonths) {
  digest d;
  for (const auto& vm : dataset::database_view(corpus_db()).vehicle_months()) add_cell(d, vm);
  EXPECT_EQ(d.hex(), "0ba5420561bfdf40");
}

bool same_cell(const dataset::vehicle_month& a, const dataset::vehicle_month& b) {
  return a.maker == b.maker && a.vehicle_id == b.vehicle_id && a.month == b.month &&
         a.miles == b.miles && a.disengagements == b.disengagements;
}

// vehicle_months(maker) is exactly the maker's slice of vehicle_months():
// no attribution rule crosses makers.
void expect_per_maker_slices(const dataset::database_view& view) {
  const auto all = view.vehicle_months();
  std::size_t total = 0;
  for (const auto maker : k_all_manufacturers) {
    std::vector<dataset::vehicle_month> filtered;
    for (const auto& vm : all) {
      if (vm.maker == maker) filtered.push_back(vm);
    }
    const auto mine = view.vehicle_months(maker);
    ASSERT_EQ(mine.size(), filtered.size()) << dataset::manufacturer_id(maker);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_TRUE(same_cell(mine[i], filtered[i]))
          << dataset::manufacturer_id(maker) << " cell " << i;
    }
    total += mine.size();
  }
  EXPECT_EQ(total, all.size());
}

// Two makers interleaved in corpus order, each with the records the
// attribution fallbacks handle: a redacted vehicle id, a vehicle with no
// mileage record, a month with no mileage, and events with no month.
dataset::failure_database redacted_and_no_month_db() {
  dataset::failure_database db;
  const auto mileage = [&](manufacturer maker, const std::string& vid, year_month ym,
                           double miles) {
    dataset::mileage_record m;
    m.maker = maker;
    m.vehicle_id = vid;
    m.month = ym;
    m.miles = miles;
    db.add_mileage(m);
  };
  const auto event = [&](manufacturer maker, const std::string& vid,
                         std::optional<year_month> month) {
    dataset::disengagement_record d;
    d.maker = maker;
    d.vehicle_id = vid;
    d.event_month = month;
    d.description = "x";
    db.add_disengagement(d);
  };
  for (const auto maker : {manufacturer::waymo, manufacturer::nissan}) {
    mileage(maker, "A", {2016, 1}, 300);
    mileage(maker, "B", {2016, 1}, 100);
    mileage(maker, "B", {2016, 2}, 250);
  }
  mileage(manufacturer::waymo, "A", {2016, 1}, 50);  // duplicate cell row
  for (int i = 0; i < 5; ++i) {
    event(manufacturer::waymo, "", year_month{2016, 1});       // redacted vehicle
    event(manufacturer::nissan, "GHOST", year_month{2016, 2});  // no mileage record
    event(manufacturer::nissan, "", std::nullopt);              // no month
    event(manufacturer::waymo, "B", year_month{2016, 6});      // month without miles
  }
  event(manufacturer::delphi, "D", year_month{2016, 1});  // maker without mileage
  return db;
}

TEST(VehicleMonthGoldens, RedactedAndNoMonthFixture) {
  digest d;
  const auto db = redacted_and_no_month_db();
  for (const auto& vm : dataset::database_view(db).vehicle_months()) add_cell(d, vm);
  EXPECT_EQ(d.hex(), "45869e245681ac2d");
}

TEST(VehicleMonthGoldens, PerMakerJoinIsTheFilteredWholeJoin) {
  expect_per_maker_slices(corpus_db());
  expect_per_maker_slices(redacted_and_no_month_db());
}

TEST(VehicleMonthGoldens, PerCarDpm) {
  digest all;
  digest by_year;
  for (const auto maker : k_all_manufacturers) {
    all.nums(core::per_car_dpm(corpus_db(), maker));
    for (const int year : {2014, 2015, 2016}) {
      by_year.nums(core::per_car_dpm(corpus_db(), maker, year));
    }
  }
  EXPECT_EQ(all.hex(), "326c84911c027b0a");
  EXPECT_EQ(by_year.hex(), "4b67899adbbfb63c");
}

TEST(VehicleMonthGoldens, MonthlyTrend) {
  digest d;
  for (const auto maker : k_all_manufacturers) {
    const auto series = core::build_monthly_trend(corpus_db(), maker);
    d.integer(static_cast<long long>(series.size()));
    for (const auto& p : series) {
      d.integer(p.month.index());
      d.num(p.miles);
      d.integer(p.disengagements);
    }
  }
  EXPECT_EQ(d.hex(), "eefb7f2a6ecbe242");
}

TEST(VehicleMonthGoldens, Fig8Pairs) {
  digest d;
  const std::vector<manufacturer> all(k_all_manufacturers.begin(), k_all_manufacturers.end());
  const auto pooled = core::build_fig8(corpus_db(), all);
  d.nums(pooled.log_cumulative_miles);
  d.nums(pooled.log_dpm);
  for (const auto maker : k_all_manufacturers) {
    const auto one = core::build_fig8(corpus_db(), {maker});
    d.nums(one.log_cumulative_miles);
    d.nums(one.log_dpm);
  }
  EXPECT_EQ(d.hex(), "c708a9693bd9bd79");
}

TEST(VehicleMonthGoldens, Spells) {
  digest d;
  for (const auto maker : k_all_manufacturers) {
    const auto spells = core::miles_to_disengagement_spells(corpus_db(), maker);
    d.integer(static_cast<long long>(spells.size()));
    for (const auto& s : spells) {
      d.num(s.time);
      d.integer(s.event ? 1 : 0);
    }
  }
  EXPECT_EQ(d.hex(), "a60d36d855d17e7d");
}

TEST(VehicleMonthGoldens, EventProcesses) {
  digest fleet;
  digest vins;
  const auto add_process = [](digest& d, const reliability::event_process& p) {
    d.bytes(p.unit_id + ";");
    d.num(p.exposure);
    d.nums(p.events);
  };
  for (const auto& mp : reliability::extract_processes(corpus_db())) {
    fleet.integer(static_cast<long long>(mp.maker));
    add_process(fleet, mp.fleet);
    vins.integer(static_cast<long long>(mp.maker));
    vins.integer(static_cast<long long>(mp.vehicles.size()));
    for (const auto& v : mp.vehicles) add_process(vins, v);
  }
  EXPECT_EQ(fleet.hex(), "1d6c132a31630ba8");
  EXPECT_EQ(vins.hex(), "b19a32ca4de5abc0");
}

}  // namespace
