#include "ocr/noise.h"

#include <map>

namespace avtk::ocr {

noise_profile noise_profile::for_quality(scan_quality q) {
  switch (q) {
    case scan_quality::clean:
      return {0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    case scan_quality::good:
      return {0.002, 0.0003, 0.0003, 0.0005, 0.0005, 0.0};
    case scan_quality::fair:
      return {0.008, 0.001, 0.001, 0.002, 0.002, 0.0003};
    case scan_quality::poor:
      return {0.025, 0.004, 0.003, 0.006, 0.006, 0.003};
  }
  return {};
}

const std::vector<char>& confusions_for(char c) {
  static const std::map<char, std::vector<char>> table = {
      {'0', {'O', 'o'}}, {'O', {'0'}},      {'o', {'0', 'c'}}, {'1', {'l', 'I'}},
      {'l', {'1', 'I'}}, {'I', {'1', 'l'}}, {'5', {'S'}},      {'S', {'5'}},
      {'8', {'B'}},      {'B', {'8'}},      {'6', {'b'}},      {'b', {'6'}},
      {'2', {'Z'}},      {'Z', {'2'}},      {'g', {'q', '9'}}, {'9', {'g'}},
      {'c', {'e'}},      {'e', {'c'}},      {'a', {'o'}},      {'u', {'v'}},
      {'v', {'u'}},      {'n', {'h'}},      {'h', {'n'}},      {'t', {'f'}},
      {'f', {'t'}},      {'.', {','}},      {',', {'.'}},      {';', {':'}},
  };
  static const std::vector<char> empty;
  const auto it = table.find(c);
  return it == table.end() ? empty : it->second;
}

std::string corrupt_line(std::string_view line, const noise_profile& profile, rng& gen) {
  std::string out;
  out.reserve(line.size() + 4);
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == ' ') {
      if (profile.space_drop > 0 && gen.bernoulli(profile.space_drop)) continue;
      out += c;
      continue;
    }
    if (profile.drop > 0 && gen.bernoulli(profile.drop)) continue;
    char emitted = c;
    if (profile.confusion > 0 && gen.bernoulli(profile.confusion)) {
      const auto& options = confusions_for(c);
      if (!options.empty()) emitted = options[static_cast<std::size_t>(gen.uniform_int(0, static_cast<std::int64_t>(options.size()) - 1))];
    }
    out += emitted;
    if (profile.duplicate > 0 && gen.bernoulli(profile.duplicate)) out += emitted;
    if (profile.space_insert > 0 && gen.bernoulli(profile.space_insert)) out += ' ';
  }
  return out;
}

void corrupt_document(document& doc, rng& gen) {
  const auto profile = noise_profile::for_quality(doc.quality);
  for (auto& p : doc.pages) {
    for (auto& line : p.lines) line = corrupt_line(line, profile, gen);
    if (profile.line_merge > 0) {
      // Structural table damage: a row fuses with its successor.
      std::vector<std::string> merged;
      merged.reserve(p.lines.size());
      for (std::size_t i = 0; i < p.lines.size(); ++i) {
        std::string line = std::move(p.lines[i]);
        while (i + 1 < p.lines.size() && gen.bernoulli(profile.line_merge)) {
          line += ' ';
          line += std::move(p.lines[i + 1]);
          ++i;
        }
        merged.push_back(std::move(line));
      }
      p.lines = std::move(merged);
    }
  }
}

}  // namespace avtk::ocr
