#include "ocr/document.h"

#include "util/strings.h"

namespace avtk::ocr {

std::size_t document::line_count() const {
  std::size_t n = 0;
  for (const auto& p : pages) n += p.lines.size();
  return n;
}

std::string document::full_text() const {
  std::string out;
  for (std::size_t i = 0; i < pages.size(); ++i) {
    if (i > 0) out += '\n';
    for (const auto& line : pages[i].lines) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

document document::from_text(std::string text) {
  document doc;
  page p;
  for (const auto line : str::split(text, '\n')) p.lines.emplace_back(line);
  // A trailing newline leaves one empty line; keep the text round-trippable
  // by dropping it.
  if (!p.lines.empty() && p.lines.back().empty()) p.lines.pop_back();
  doc.pages.push_back(std::move(p));
  return doc;
}

}  // namespace avtk::ocr
