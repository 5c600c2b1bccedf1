#include "obs/export.h"

#include <filesystem>
#include <fstream>

namespace avtk::obs {

std::vector<std::pair<std::string, std::int64_t>> stage_totals_ns(
    const std::vector<span>& spans) {
  std::vector<std::pair<std::string, std::int64_t>> totals;
  for (const auto& s : spans) {
    if (s.duration_ns < 0) continue;
    auto it = totals.begin();
    for (; it != totals.end(); ++it) {
      if (it->first == s.name) break;
    }
    if (it == totals.end()) {
      totals.emplace_back(s.name, s.duration_ns);
    } else {
      it->second += s.duration_ns;
    }
  }
  return totals;
}

json::value trace_to_json_value(const trace& t) {
  const auto spans = t.spans();
  json::array span_array;
  span_array.reserve(spans.size());
  for (const auto& s : spans) {
    span_array.push_back(json::object{
        {"id", json::value(s.id)},
        {"parent", json::value(s.parent)},
        {"name", json::value(s.name)},
        {"start_ns", json::value(static_cast<double>(s.start_ns))},
        {"duration_ns", json::value(static_cast<double>(s.duration_ns))},
    });
  }
  json::object totals;
  for (const auto& [name, ns] : stage_totals_ns(spans)) {
    totals.emplace_back(name, json::value(static_cast<double>(ns)));
  }
  return json::value(json::object{
      {"schema", json::value("avtk.trace.v1")},
      {"total_ns", json::value(static_cast<double>(t.elapsed_ns()))},
      {"stage_totals_ns", json::value(std::move(totals))},
      {"spans", json::value(std::move(span_array))},
  });
}

std::string trace_to_json(const trace& t) { return trace_to_json_value(t).dump(2) + "\n"; }

json::value snapshot_to_json_value(const metrics_snapshot& snap) {
  json::object counters;
  for (const auto& [name, v] : snap.counters) {
    counters.emplace_back(name, json::value(static_cast<double>(v)));
  }
  json::object gauges;
  for (const auto& [name, v] : snap.gauges) gauges.emplace_back(name, json::value(v));
  return json::value(json::object{
      {"schema", json::value("avtk.metrics.v1")},
      {"counters", json::value(std::move(counters))},
      {"gauges", json::value(std::move(gauges))},
  });
}

std::string snapshot_to_json(const metrics_snapshot& snap) {
  return snapshot_to_json_value(snap).dump(2) + "\n";
}

bool write_text_file(const std::string& path, const std::string& contents) {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
  std::ofstream out(p, std::ios::binary);
  if (!out) return false;
  out << contents;
  return static_cast<bool>(out);
}

}  // namespace avtk::obs
