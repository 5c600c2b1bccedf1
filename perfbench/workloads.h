// perfbench/workloads.h
//
// Seeded input generators for the four workloads, and the fixed constants
// (open-loop rates, latency limits) BENCHMARK.json states in each
// workload's "why". The program under test only ever sees the generated
// request lines and documents; the same seed always yields the same bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/manufacturers.h"
#include "serve/query.h"
#include "util/errors.h"
#include "wire.h"

namespace avbench {

enum class workload { serve_hot, serve_cold, ingest_live, batch_run };

std::string_view workload_name(workload w);
bool workload_from_name(std::string_view name, workload* out);

/// Open-loop line rates (lines/s), fixed absolute numbers near half of the
/// closed-loop rate measured on a 4-vCPU x86-64 guest (a third for ingest,
/// whose 1-3 ms filings start queueing behind host stalls at half), and
/// the latency limits of the max_rps ladder.
inline constexpr double k_hot_rate = 40000;
inline constexpr double k_cold_rate = 600;
inline constexpr double k_ingest_rate = 600;
inline constexpr double k_hot_limit_ms = 1;
inline constexpr double k_cold_limit_ms = 200;

/// Zipf exponent of the hot draws and read-after-write queries per filing.
inline constexpr double k_zipf_s = 1.1;
inline constexpr std::size_t k_queries_per_filing = 4;

/// Wire request line for `q` carrying correlation id `id`.
std::string request_line(const avtk::serve::query& q, std::size_t id);

/// The ~50 canonical Stage-IV queries of the paper's per-maker tables and
/// figures: metrics/tags/categories/modality/trend, bare and per maker, in
/// a fixed popularity order.
std::vector<avtk::serve::query> hot_queries(const std::vector<avtk::dataset::manufacturer>& makers);

/// `n` Zipf(s)-ranked draws over [0, k), seeded.
std::vector<std::size_t> zipf_draws(std::size_t k, std::size_t n, std::uint64_t seed);

/// `n` distinct canonical queries spanning all 9 kinds, every index axis
/// and the mcf/nhpp/fit knobs, drawn in fixed-proportion blocks so every
/// seed carries the same cost mix.
std::vector<avtk::serve::query> cold_queries(const std::vector<avtk::dataset::manufacturer>& makers,
                                             std::size_t n, std::uint64_t seed);

/// One filing of the live ingest stream with its known fate.
struct filing {
  std::string line;  ///< ingest request line (id filled in by the stream builder)
  avtk::dataset::manufacturer maker = avtk::dataset::manufacturer::waymo;
  bool corrupted = false;
  avtk::error_code expected_code = avtk::error_code::internal;
};

/// Month-ordered DMV filings for all 12 makers (soak::build_workload with a
/// ~10% chaos fraction), interleaved maker by maker.
std::vector<filing> build_filings(std::uint64_t seed);

/// The ingest_live wire stream: each filing followed by
/// k_queries_per_filing read-after-write queries of the filed maker, their
/// kinds Zipf-drawn in the serve_hot popularity order.
struct ingest_stream {
  line_stream lines;
  std::vector<long> filing_of_line;  ///< filing index, or -1 for a query line
};
ingest_stream build_ingest_stream(const std::vector<filing>& filings, std::uint64_t seed);

/// Due times for `n` lines at a fixed rate (lines/s).
std::vector<std::int64_t> fixed_rate_due(std::size_t n, double rate);

}  // namespace avbench
