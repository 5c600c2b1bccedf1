// The summed duration of every closed span with one name: the oracle the
// trace exporter's stage totals and the pipeline's stage spans are checked
// against. Test-only: the obs and core tests include it.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace avtk::obs {

inline std::int64_t total_duration_ns(const std::vector<span>& spans, std::string_view name) {
  std::int64_t total = 0;
  for (const auto& s : spans) {
    if (s.name == name && s.duration_ns >= 0) total += s.duration_ns;
  }
  return total;
}

}  // namespace avtk::obs
