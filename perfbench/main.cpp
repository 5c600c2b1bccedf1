// avbench: the avtk benchmark.
//
//   avbench --workload <serve_hot|serve_cold|ingest_live|batch_run>
//           --seed <n> --seconds <s> --trace <0|1>
//   avbench --selftest
//
// --trace 0 measures the workload end to end (untraced) and --trace 1 runs
// the traced per-layer profile. Either way every metric is printed by name
// with its unit and better direction, the correctness checks run, and the
// last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// See perfbench/README.md for the metric definitions.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "measure.h"

namespace avbench {
int run_selftest();
}

namespace {

using avbench::metric;

// Better direction, as BENCHMARK.json states it; counts printed beside the
// result line only describe the run.
std::string_view direction(const metric& m, bool described) {
  if (described && m.unit == "count") return "info";
  const std::string_view name = m.name;
  if (name.starts_with("throughput") || name.ends_with("_rps") || name.ends_with("per_s") ||
      name == "cache.hit_ratio" || name == "trace.coverage" || name == "pipeline.scan_balance") {
    return "higher";
  }
  return "lower";
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_rows(const char* heading, const std::vector<metric>& rows, bool described) {
  std::printf("%s\n", heading);
  for (const auto& m : rows) {
    std::printf("  %-32s %16.6g %-8s (%s)\n", m.name.c_str(), m.value, m.unit.c_str(),
                std::string(direction(m, described)).c_str());
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: avbench --workload <serve_hot|serve_cold|ingest_live|batch_run> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "       avbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_arg;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--selftest") return avbench::run_selftest();
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload_arg = v;
    } else if (a == "--seed") {
      seed = std::strtoll(v, &end, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      trace = static_cast<int>(std::strtol(v, &end, 10));
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  avbench::workload w;
  if (!avbench::workload_from_name(workload_arg, &w) || seed < 0 || !(seconds > 0) ||
      (trace != 0 && trace != 1)) {
    return usage();
  }

  std::printf("avbench %s seed=%lld seconds=%g trace=%d\n", workload_arg.c_str(), seed, seconds,
              trace);
  const auto r = trace == 1 ? avbench::trace_layers(w, static_cast<std::uint64_t>(seed), seconds)
                            : avbench::measure(w, static_cast<std::uint64_t>(seed), seconds);
  print_rows(trace == 1 ? "per-layer metrics:" : "end-to-end metrics:", r.metrics, false);
  if (!r.info.empty()) print_rows("also measured (not in the result line):", r.info, true);
  const double fail_frac =
      r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 1.0;
  std::printf("correctness: attempted %zu, failed %zu, fail_frac %.6g\n", r.attempted, r.failed,
              fail_frac);
  for (const auto& e : r.errors) std::printf("  FAIL %s\n", e.c_str());

  std::string line = "{\"correct\": ";
  line += (r.failed == 0 && r.attempted > 0) ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<std::size_t>(r.attempted, 1));
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    if (i > 0) line += ", ";
    line += json_string(m.name) + ": {\"value\": " + number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
