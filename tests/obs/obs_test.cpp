// avtk::obs unit tests: timer monotonicity, counter-registry thread safety
// under a pipeline-style worker fan-out, and the span/trace bookkeeping.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "span_totals.h"

namespace avtk::obs {
namespace {

TEST(Stopwatch, NeverGoesBackwards) {
  const stopwatch w;
  std::int64_t last = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto now = w.elapsed_ns();
    EXPECT_GE(now, last);
    last = now;
  }
  EXPECT_GE(last, 0);
}

TEST(Stopwatch, RestartResetsTheEpoch) {
  stopwatch w;
  while (w.elapsed_ns() == 0) {
  }
  w.restart();
  EXPECT_LT(w.elapsed_ns(), 1'000'000'000);
}

TEST(ScopedTimer, AccumulatesIntoSink) {
  duration_accumulator sink;
  { const scoped_timer t(&sink); }
  { const scoped_timer t(&sink); }
  EXPECT_GE(sink.total_ns(), 0);
  EXPECT_DOUBLE_EQ(sink.total_seconds(), static_cast<double>(sink.total_ns()) * 1e-9);
  sink.reset();
  EXPECT_EQ(sink.total_ns(), 0);
}

TEST(ScopedTimer, NullSinkIsANoOp) {
  const scoped_timer t(nullptr);
  EXPECT_GE(t.elapsed_ns(), 0);
}

TEST(MetricRegistry, CountersAccumulate) {
  metric_registry reg;
  reg.get_counter("a").add();
  reg.get_counter("a").add(4);
  reg.get_counter("b").add(2);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("a"), 5u);
  EXPECT_EQ(snap.counter_value("b"), 2u);
  EXPECT_EQ(snap.counter_value("missing"), 0u);
}

TEST(MetricRegistry, GaugesLastWriteWinsAndAccumulate) {
  metric_registry reg;
  reg.set_gauge("g", 1.5);
  reg.set_gauge("g", 2.5);
  reg.add_gauge("sum", 1.0);
  reg.add_gauge("sum", 2.0);
  const auto snap = reg.snapshot();
  using gauge = std::pair<std::string, double>;
  EXPECT_EQ(snap.gauges, (std::vector<gauge>{{"g", 2.5}, {"sum", 3.0}}));
}

TEST(MetricRegistry, SnapshotIsNameSorted) {
  metric_registry reg;
  reg.get_counter("zeta").add();
  reg.get_counter("alpha").add();
  reg.get_counter("mid").add();
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "mid");
  EXPECT_EQ(snap.counters[2].first, "zeta");
}

// The contract the pipeline relies on: many workers hammering the same and
// distinct counters concurrently lose no increments, and references stay
// valid across concurrent first-touch registration.
TEST(MetricRegistry, ThreadSafeUnderWorkerFanOut) {
  metric_registry reg;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, &go, t] {
      while (!go.load()) {
      }
      counter& shared = reg.get_counter("shared");
      counter& mine = reg.get_counter("worker." + std::to_string(t));
      for (int i = 0; i < kIncrements; ++i) {
        shared.add();
        mine.add();
        reg.get_counter("lookup.every.time").add();
      }
    });
  }
  go.store(true);
  for (auto& w : workers) w.join();

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("shared"), static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(snap.counter_value("lookup.every.time"),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.counter_value("worker." + std::to_string(t)),
              static_cast<std::uint64_t>(kIncrements));
  }
}

TEST(Trace, SpansRecordHierarchyAndDurations) {
  trace t;
  const auto root = t.begin_span("pipeline");
  const auto child = t.begin_span("ocr", root);
  t.end_span(child);
  t.end_span(root);

  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "pipeline");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].name, "ocr");
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[0].duration_ns, spans[1].duration_ns);  // parent encloses child
  EXPECT_GE(spans[1].duration_ns, 0);
}

TEST(Trace, EndingTwiceKeepsTheFirstDuration) {
  trace t;
  const auto id = t.begin_span("s");
  t.end_span(id);
  const auto first = t.spans()[0].duration_ns;
  t.end_span(id);
  EXPECT_EQ(t.spans()[0].duration_ns, first);
  t.end_span(9999);  // out of range: ignored
  EXPECT_EQ(t.size(), 1u);
}

TEST(Trace, OpenSpansAreMarked) {
  trace t;
  t.begin_span("open");
  EXPECT_EQ(t.spans()[0].duration_ns, -1);
}

TEST(ScopedSpan, NullTraceIsANoOp) {
  scoped_span s(nullptr, "anything");
  EXPECT_EQ(s.id(), 0u);
  s.close();  // must not crash
}

TEST(ScopedSpan, ClosesOnDestructionAndIsIdempotent) {
  trace t;
  {
    scoped_span s(&t, "outer");
    EXPECT_NE(s.id(), 0u);
    scoped_span inner(&t, "inner", s.id());
    inner.close();
    inner.close();
  }
  for (const auto& s : t.spans()) EXPECT_GE(s.duration_ns, 0) << s.name;
}

TEST(Trace, ConcurrentSpansFromManyThreads) {
  trace t;
  const auto root = t.begin_span("root");
  constexpr int kThreads = 8;
  constexpr int kSpans = 500;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&t, root] {
      for (int i = 0; i < kSpans; ++i) {
        const scoped_span s(&t, "work", root);
      }
    });
  }
  for (auto& w : workers) w.join();
  t.end_span(root);

  const auto spans = t.spans();
  EXPECT_EQ(spans.size(), 1u + kThreads * kSpans);
  // Ids are unique and dense.
  std::vector<bool> seen(spans.size() + 1, false);
  for (const auto& s : spans) {
    ASSERT_GE(s.id, 1u);
    ASSERT_LE(s.id, spans.size());
    EXPECT_FALSE(seen[s.id]);
    seen[s.id] = true;
  }
  EXPECT_GT(total_duration_ns(spans, "work"), 0);
}

}  // namespace
}  // namespace avtk::obs
