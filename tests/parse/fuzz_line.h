// The parse fuzz suites' byte soup: printable ASCII plus the separators the
// formats use, weighted toward structure-ish characters to hit parser
// branches.
#pragma once

#include <cstddef>
#include <string>

#include "util/rng.h"

namespace avtk::parse::testing {

inline std::string random_line(rng& gen, std::size_t max_len) {
  const auto len = static_cast<std::size_t>(gen.uniform_int(0, static_cast<std::int64_t>(max_len)));
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    switch (gen.uniform_int(0, 9)) {
      case 0: out += ','; break;
      case 1: out += '|'; break;
      case 2: out += '-'; break;
      case 3: out += ' '; break;
      case 4: out += '"'; break;
      case 5: out += ':'; break;
      case 6: out += static_cast<char>('0' + gen.uniform_int(0, 9)); break;
      default: out += static_cast<char>(gen.uniform_int(32, 126)); break;
    }
  }
  return out;
}

}  // namespace avtk::parse::testing
