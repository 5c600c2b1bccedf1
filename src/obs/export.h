// avtk/obs/export.h
//
// Machine-readable exports of traces and metric snapshots: JSON (for CI
// gating and perf-trajectory tooling) and CSV (for spreadsheets/gnuplot).
//
// Trace JSON schema (stable; CI validates it):
//   {
//     "schema": "avtk.trace.v1",
//     "total_ns": <root-to-now nanoseconds>,
//     "stage_totals_ns": { "<stage name>": <summed closed-span ns>, ... },
//     "spans": [ {"id":N,"parent":N,"name":S,"start_ns":N,"duration_ns":N} ]
//   }
// Metrics JSON schema:
//   { "schema": "avtk.metrics.v1",
//     "counters": { name: integer, ... }, "gauges": { name: number, ... } }
#pragma once

#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace avtk::obs {

/// Per-stage wall-clock totals: every distinct span name mapped to the sum
/// of its closed spans' durations, in first-appearance order.
std::vector<std::pair<std::string, std::int64_t>> stage_totals_ns(const std::vector<span>& spans);

json::value trace_to_json_value(const trace& t);
std::string trace_to_json(const trace& t);

json::value snapshot_to_json_value(const metrics_snapshot& snap);
std::string snapshot_to_json(const metrics_snapshot& snap);

/// Writes `contents` to `path`, creating parent directories. Returns false
/// (no throw) on I/O failure so exporters never take down a pipeline run.
bool write_text_file(const std::string& path, const std::string& contents);

}  // namespace avtk::obs
