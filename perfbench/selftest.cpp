// The benchmark's own tests (avbench --selftest):
//   1. a stub loop that delays every response by a known amount yields the
//      expected due-time latency, and the generator's lateness stays small;
//      latency past the in-flight window's floor starts at the right line,
//      and closed live passes are cut at the right responses;
//   2. the generators are deterministic per seed (and differ across seeds);
//   3. an injected payload mismatch raises fail_frac above 0.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <string>
#include <thread>

#include "measure.h"

namespace avbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

// Answers every request line after sleeping `delay`, echoing its id the
// way the serve envelope does.
auto stub_loop(std::chrono::microseconds delay) {
  return [delay](std::istream& in, std::ostream& out) {
    std::string line;
    long id = 0;
    while (std::getline(in, line)) {
      std::this_thread::sleep_for(delay);
      out << R"({"schema":"avtk.serve.v1","ok":true,"id":)" << id++ << "}\n";
      out.flush();
    }
  };
}

line_stream numbered_lines(std::size_t n) {
  line_stream s;
  for (std::size_t i = 0; i < n; ++i) s.push(R"({"id":)" + std::to_string(i) + "}");
  return s;
}

void test_stub_latency() {
  std::printf("stub delay -> due-time latency\n");
  constexpr std::size_t n = 200;
  const auto lines = numbered_lines(n);
  // Open loop: 2 ms spacing, 1 ms service -> the loop always waits for
  // input, so each line's latency is the stub delay plus wake-up lateness.
  // Sleeps only ever overshoot, so the lower bounds below are exact and the
  // upper bounds leave room for a loaded host.
  const auto due = fixed_rate_due(n, 500);
  const auto open = drive(lines, &due, n, stub_loop(std::chrono::microseconds(1000)));
  std::vector<double> lat;
  for (const auto v : open.latency_ns) lat.push_back(static_cast<double>(v) * 1e-6);
  std::vector<double> late;
  for (const auto v : open.wake_late_ns) late.push_back(static_cast<double>(v) * 1e-6);
  expect(open.responses.size() == n, "every line answered");
  expect(percentile(lat, 50) >= 1.0 && percentile(lat, 50) < 2.0,
         "open-loop p50 latency ~= 1 ms delay (got " + std::to_string(percentile(lat, 50)) + ")");
  expect(percentile(late, 50) < 1.0,
         "generator lateness p50 < 1 ms (got " + std::to_string(percentile(late, 50)) + ")");
  expect(open.backlog <= 2, "no backlog when the loop keeps up");

  // Overload: 0.5 ms spacing, 1 ms service -> the backlog grows and the
  // last line waits for at least n * (1 - 0.5) ms.
  const auto fast = fixed_rate_due(n, 2000);
  const auto over = drive(lines, &fast, n, stub_loop(std::chrono::microseconds(1000)));
  const double last_ms = static_cast<double>(over.latency_ns.back()) * 1e-6;
  expect(last_ms >= 0.5 * n && last_ms < 2.0 * n,
         "overloaded last-line latency >= n/2 ms (got " + std::to_string(last_ms) + ")");
  expect(over.backlog > n / 4, "overload shows as backlog (" + std::to_string(over.backlog) + ")");

  // Closed loop: line k answers after (k+1) delays.
  const auto closed = drive(lines, nullptr, 50, stub_loop(std::chrono::microseconds(500)));
  const double k49 = static_cast<double>(closed.latency_ns[49]) * 1e-6;
  expect(k49 >= 25 && k49 < 100, "closed-loop line 50 answers after >= 50 delays (got " +
                                     std::to_string(k49) + " ms)");
}

void test_program_latency() {
  std::printf("latency past the window floor\n");
  // Line k arrives at k ms; response i leaves 0.5 ms after the later of
  // the arrival of the line that lets it go (i + 3 with a window of 4, the
  // filing at line 5 for lines 2-5, the last line for lines 6-7) and the
  // previous response.
  constexpr std::size_t n = 8;
  const std::vector<long> filing_of_line = {-1, -1, -1, -1, -1, 0, -1, -1};
  const std::size_t release[n] = {3, 4, 5, 5, 5, 5, 7, 7};
  pass_result p;
  p.start_ns = 1000;
  for (std::size_t k = 0; k < n; ++k) {
    p.available_ns.push_back(static_cast<std::int64_t>(k) * 1000000);
  }
  for (std::size_t k = 0; k < n; ++k) {
    std::int64_t from = p.start_ns + p.available_ns[release[k]];
    if (k > 0) from = std::max(from, p.responses[k - 1].written_ns);
    response_line r;
    r.written_ns = from + 500000;
    p.responses.push_back(r);
  }
  const auto lat = program_latency_ms(p, n, 4, &filing_of_line);
  bool all = lat.size() == n;
  for (const double v : lat) all = all && std::abs(v - 0.5) < 1e-9;
  expect(all, "each response is timed from the arrival that releases it");

  // The stub answers each line alone (a window of 1): from arrival, its
  // latency is the stub delay.
  const auto lines = numbered_lines(100);
  const auto due = fixed_rate_due(lines.size(), 500);
  const auto pass = drive(lines, &due, lines.size(), stub_loop(std::chrono::microseconds(1000)));
  const double p50 = percentile(program_latency_ms(pass, lines.size(), 1), 50);
  expect(p50 >= 1.0 && p50 < 2.0, "window-1 latency from arrival ~= 1 ms delay (got " +
                                      std::to_string(p50) + ")");
}

void test_filing_segments() {
  std::printf("closed live passes cut at filings\n");
  // Responses leave at 1, 2, 5, 6, 7, 9, 10 and 12 ms; lines 2 and 5 are
  // filings. Segments end at each filing's response and at the last one.
  pass_result p;
  p.start_ns = 1000;
  for (const int at_ms : {1, 2, 5, 6, 7, 9, 10, 12}) {
    response_line r;
    r.written_ns = p.start_ns + at_ms * 1000000;
    p.responses.push_back(r);
  }
  const auto s = filing_segments_s(p, {-1, -1, 0, -1, -1, 1, -1, -1});
  expect(s.size() == 3 && std::abs(s[0] - 0.005) < 1e-12 && std::abs(s[1] - 0.004) < 1e-12 &&
             std::abs(s[2] - 0.003) < 1e-12,
         "segments of 5, 4 and 3 ms, summing to the pass");
}

void test_determinism() {
  std::printf("generators are deterministic per seed\n");
  const std::vector<avtk::dataset::manufacturer> makers(
      avtk::dataset::k_all_manufacturers.begin(), avtk::dataset::k_all_manufacturers.begin() + 8);
  expect(zipf_draws(45, 5000, 7) == zipf_draws(45, 5000, 7), "zipf draws repeat for one seed");
  expect(zipf_draws(45, 5000, 7) != zipf_draws(45, 5000, 8), "zipf draws differ across seeds");
  const auto canon = [&](std::uint64_t seed) {
    std::string all;
    for (const auto& q : cold_queries(makers, 400, seed)) all += request_line(q, 0) + "\n";
    return all;
  };
  expect(canon(3) == canon(3), "cold queries repeat for one seed");
  expect(canon(3) != canon(4), "cold queries differ across seeds");
  const auto stream = [&](std::uint64_t seed) {
    const auto filings = build_filings(seed);
    return build_ingest_stream(filings, seed).lines.bytes;
  };
  const auto s5 = stream(5);
  expect(s5 == stream(5), "ingest stream repeats for one seed");
  expect(s5 != stream(6), "ingest stream differs across seeds");
}

void test_mismatch() {
  std::printf("an injected payload mismatch raises fail_frac\n");
  const auto cs = build_corpus_state();
  const auto hot = hot_queries(cs.analyzed);
  auto oracle = make_engine(cs.db, 1);
  line_stream lines;
  std::vector<expectation> expected;
  const auto draws = zipf_draws(hot.size(), 300, 1);
  for (std::size_t i = 0; i < draws.size(); ++i) {
    lines.push(request_line(hot[draws[i]], i));
    expected.push_back(oracle_answer(*oracle, request_line(hot[draws[i]], 0)));
  }
  auto engine = make_engine(cs.db);
  const auto pass = run_pass(*engine, lines, nullptr, lines.size());
  run_result clean;
  check_pass(pass, lines.size(), expected, clean);
  expect(clean.failed == 0, "live responses match the oracle");
  auto injected = expected;
  injected[123].hash ^= 1;
  run_result bad;
  check_pass(pass, lines.size(), injected, bad);
  expect(bad.failed == 1, "one mismatched payload counts as one failure");
  auto shifted = pass;
  std::swap(shifted.responses[10], shifted.responses[11]);
  run_result reordered;
  check_pass(shifted, lines.size(), expected, reordered);
  expect(reordered.failed == 2, "out-of-order responses fail their id check");
}

}  // namespace

int run_selftest() {
  test_stub_latency();
  test_program_latency();
  test_filing_segments();
  test_determinism();
  test_mismatch();
  std::printf("selftest: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace avbench
