// The corpus generator's marginals must match the paper's ground truth —
// these are the calibration guarantees the whole reproduction rests on.
#include "dataset/generator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "dataset/ground_truth.h"

namespace avtk::dataset {
namespace {

namespace gt = ground_truth;

// One shared corpus for the whole suite (generation is ~100 ms).
const generated_corpus& corpus() {
  static const generated_corpus c = [] {
    generator_config cfg;
    cfg.render_documents = false;  // ground-truth records only
    return generate_corpus(cfg);
  }();
  return c;
}

TEST(Generator, TotalsMatchTable1Headlines) {
  EXPECT_EQ(corpus().disengagements.size(),
            static_cast<std::size_t>(gt::k_total_disengagements));
  EXPECT_EQ(corpus().accidents.size(), static_cast<std::size_t>(gt::k_total_accidents));
  double miles = 0;
  for (const auto& m : corpus().mileage) miles += m.miles;
  EXPECT_NEAR(miles, gt::k_total_miles, gt::k_total_miles * 0.001);
}

TEST(Generator, PerManufacturerReleaseTotalsExact) {
  std::map<std::pair<manufacturer, int>, long long> events;
  std::map<std::pair<manufacturer, int>, double> miles;
  for (const auto& d : corpus().disengagements) ++events[{d.maker, d.report_year}];
  for (const auto& m : corpus().mileage) miles[{m.maker, m.report_year}] += m.miles;

  for (const auto& row : gt::table1()) {
    if (row.disengagements) {
      EXPECT_EQ((events[{row.maker, row.report_year}]), *row.disengagements)
          << manufacturer_name(row.maker) << "/" << row.report_year;
    }
    if (row.miles && *row.miles > 0) {
      EXPECT_NEAR((miles[{row.maker, row.report_year}]), *row.miles, 0.5)
          << manufacturer_name(row.maker) << "/" << row.report_year;
    }
  }
}

TEST(Generator, AccidentQuotasPerManufacturer) {
  std::map<manufacturer, long long> acc;
  for (const auto& a : corpus().accidents) ++acc[a.maker];
  for (const auto& row : gt::table6()) {
    EXPECT_EQ(acc[row.maker], row.accidents) << manufacturer_name(row.maker);
  }
}

TEST(Generator, CategoryMixWithinTolerance) {
  // Ground-truth tags (not NLP output) vs the generation mixes.
  for (const auto maker : k_analyzed_manufacturers) {
    const auto& mix = gt::generation_mix_for(maker);
    long long total = 0;
    long long perception = 0;
    long long planner = 0;
    long long system = 0;
    for (const auto& d : corpus().disengagements) {
      if (d.maker != maker) continue;
      ++total;
      switch (nlp::category_of(d.tag)) {
        case nlp::failure_category::ml_design:
          if (nlp::ml_subcategory_of(d.tag) == nlp::ml_subcategory::perception_recognition) {
            ++perception;
          } else {
            ++planner;
          }
          break;
        case nlp::failure_category::system: ++system; break;
        default: break;
      }
    }
    ASSERT_GT(total, 0) << manufacturer_name(maker);
    const double n = static_cast<double>(total);
    // Multinomial noise: tolerate 4 standard deviations or 3 points.
    const auto tolerance = [&](double p) {
      return std::max(0.03, 4.0 * std::sqrt(p * (1 - p) / n));
    };
    EXPECT_NEAR(perception / n, mix.perception_recognition,
                tolerance(mix.perception_recognition))
        << manufacturer_name(maker);
    EXPECT_NEAR(planner / n, mix.planner_controller, tolerance(mix.planner_controller))
        << manufacturer_name(maker);
    EXPECT_NEAR(system / n, mix.system, tolerance(mix.system)) << manufacturer_name(maker);
  }
}

TEST(Generator, ModalityMixWithinTolerance) {
  for (const auto& mix : gt::table5()) {
    long long total = 0;
    long long automatic = 0;
    long long planned = 0;
    for (const auto& d : corpus().disengagements) {
      if (d.maker != mix.maker) continue;
      ++total;
      if (d.mode == modality::automatic) ++automatic;
      if (d.mode == modality::planned) ++planned;
    }
    ASSERT_GT(total, 0) << manufacturer_name(mix.maker);
    const double n = static_cast<double>(total);
    EXPECT_NEAR(automatic / n, mix.automatic, std::max(0.03, 4.0 / std::sqrt(n)))
        << manufacturer_name(mix.maker);
    EXPECT_NEAR(planned / n, mix.planned, std::max(0.03, 4.0 / std::sqrt(n)))
        << manufacturer_name(mix.maker);
  }
}

TEST(Generator, ReactionTimesOnlyWherePlanned) {
  for (const auto& d : corpus().disengagements) {
    const bool has_plan = gt::has_plan_for(d.maker, d.report_year);
    ASSERT_TRUE(has_plan);
    const auto& plan = gt::plan_for(d.maker, d.report_year);
    if (!plan.reports_reaction_time) {
      EXPECT_FALSE(d.reaction_time_s.has_value()) << manufacturer_name(d.maker);
    }
  }
}

TEST(Generator, VolkswagenOutlierPresent) {
  bool found = false;
  for (const auto& d : corpus().disengagements) {
    if (d.maker == manufacturer::volkswagen && d.reaction_time_s &&
        *d.reaction_time_s > 10000.0) {
      found = true;
    }
  }
  EXPECT_TRUE(found);  // the ~4 h record the paper calls out
}

TEST(Generator, WaymoEventsAreMonthlyAggregates) {
  for (const auto& d : corpus().disengagements) {
    if (d.maker != manufacturer::waymo) continue;
    EXPECT_TRUE(d.event_month.has_value());
    EXPECT_FALSE(d.event_date.has_value());
    EXPECT_TRUE(d.vehicle_id.empty());
  }
}

TEST(Generator, DatedEventsFallInTheirPlanWindow) {
  for (const auto& d : corpus().disengagements) {
    const auto bucket = d.month_bucket();
    ASSERT_TRUE(bucket) << manufacturer_name(d.maker);
    const auto& plan = gt::plan_for(d.maker, d.report_year);
    EXPECT_GE(*bucket, plan.first_month);
    EXPECT_LE(*bucket, plan.last_month);
  }
}

TEST(Generator, CaseStudyAccidentsIncluded) {
  int case_studies = 0;
  for (const auto& a : corpus().accidents) {
    if (a.description.find("recklessly behaving road user") != std::string::npos &&
        a.maker == manufacturer::waymo) {
      ++case_studies;
    }
  }
  EXPECT_GE(case_studies, 2);
}

TEST(Generator, AccidentSpeedsLowAndMostlyRearEnd) {
  int rear = 0;
  int low_rel = 0;
  int with_rel = 0;
  for (const auto& a : corpus().accidents) {
    if (a.rear_end) ++rear;
    if (const auto rel = a.relative_speed_mph()) {
      ++with_rel;
      if (*rel < 10.0) ++low_rel;
    }
    if (a.av_speed_mph) {
      EXPECT_LE(*a.av_speed_mph, 30.0);
    }
  }
  EXPECT_GT(rear, 21);  // "most were rear-end"
  ASSERT_GT(with_rel, 0);
  EXPECT_GT(static_cast<double>(low_rel) / with_rel, 0.7);  // Fig. 12: > 80%
}

TEST(Generator, DeterministicForSeed) {
  generator_config cfg;
  cfg.render_documents = false;
  cfg.seed = 777;
  const auto a = generate_corpus(cfg);
  const auto b = generate_corpus(cfg);
  ASSERT_EQ(a.disengagements.size(), b.disengagements.size());
  for (std::size_t i = 0; i < a.disengagements.size(); ++i) {
    EXPECT_EQ(a.disengagements[i].description, b.disengagements[i].description);
    EXPECT_EQ(a.disengagements[i].tag, b.disengagements[i].tag);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  generator_config a_cfg;
  a_cfg.render_documents = false;
  a_cfg.seed = 1;
  generator_config b_cfg = a_cfg;
  b_cfg.seed = 2;
  const auto a = generate_corpus(a_cfg);
  const auto b = generate_corpus(b_cfg);
  // Totals identical (calibrated), event details different.
  ASSERT_EQ(a.disengagements.size(), b.disengagements.size());
  int diffs = 0;
  for (std::size_t i = 0; i < a.disengagements.size(); ++i) {
    if (a.disengagements[i].description != b.disengagements[i].description) ++diffs;
  }
  EXPECT_GT(diffs, 100);
}

TEST(Generator, RenderedDocumentsParallelPristine) {
  generator_config cfg;
  cfg.seed = 5;
  const auto c = generate_corpus(cfg);
  ASSERT_EQ(c.documents.size(), c.pristine_documents.size());
  for (std::size_t i = 0; i < c.documents.size(); ++i) {
    // Scan noise can MERGE table rows (never split them), so the delivered
    // copy has at most the pristine line count.
    EXPECT_LE(c.documents[i].line_count(), c.pristine_documents[i].line_count());
    EXPECT_EQ(c.documents[i].manufacturer, c.pristine_documents[i].manufacturer);
  }
}

TEST(Generator, SliceMatchesFullCorpusShape) {
  generator_config cfg;
  cfg.render_documents = false;
  const auto slice = generate_slice(manufacturer::nissan, 2016, cfg);
  EXPECT_EQ(slice.disengagements.size(), 106u);
  for (const auto& d : slice.disengagements) EXPECT_EQ(d.maker, manufacturer::nissan);
}

TEST(Generator, MileageRoundedToTenths) {
  for (const auto& m : corpus().mileage) {
    EXPECT_NEAR(m.miles * 10.0, std::round(m.miles * 10.0), 1e-6);
    EXPECT_GT(m.miles, 0.0);
  }
}

}  // namespace
}  // namespace avtk::dataset
