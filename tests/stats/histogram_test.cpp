#include "stats/histogram.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/errors.h"

namespace avtk::stats {
namespace {

TEST(Histogram, BasicBinning) {
  histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(9.99);  // bin 4
  h.add(5.0);   // bin 2
  // One rendered row per bucket: "[left, right) count |bar".
  const auto rows = h.render_ascii(10);
  EXPECT_NE(rows.find("[   0.000,    2.000)      1 |"), std::string::npos);
  EXPECT_NE(rows.find("[   2.000,    4.000)      0 |"), std::string::npos);
  EXPECT_NE(rows.find("[   4.000,    6.000)      1 |"), std::string::npos);
  EXPECT_NE(rows.find("[   6.000,    8.000)      0 |"), std::string::npos);
  EXPECT_NE(rows.find("[   8.000,   10.000)      1 |"), std::string::npos);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, UnderOverflow) {
  histogram h(0.0, 1.0, 2);
  h.add(-0.1);
  h.add(1.0);  // hi is exclusive
  h.add(5.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.render_ascii().find('#'), std::string::npos);  // no bucket holds a value
}

TEST(Histogram, FromSamplesCoversRange) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 10.0};
  const auto h = histogram::from_samples(xs, 3);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.underflow() + h.overflow(), 0u);
  EXPECT_THROW(histogram::from_samples({}, 3), logic_error);
}

TEST(Histogram, FromSamplesDegenerateRange) {
  const std::vector<double> xs = {5.0, 5.0, 5.0};
  const auto h = histogram::from_samples(xs, 4);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.underflow() + h.overflow(), 0u);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(histogram(1.0, 1.0, 5), logic_error);
  EXPECT_THROW(histogram(0.0, 1.0, 0), logic_error);
}

TEST(Histogram, RenderAsciiContainsBars) {
  histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(0.6);
  h.add(1.5);
  const auto out = h.render_ascii(10);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find('\n'), std::string::npos);
}

TEST(Histogram, EmptyRenderDoesNotCrash) {
  histogram h(0.0, 1.0, 3);
  EXPECT_FALSE(h.render_ascii().empty());
}

}  // namespace
}  // namespace avtk::stats
