#include "util/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/errors.h"

namespace avtk {

text_table::text_table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw logic_error("text_table requires at least one column");
  alignment_.assign(header_.size(), align::left);
}

text_table& text_table::set_title(std::string title) {
  title_ = std::move(title);
  return *this;
}

text_table& text_table::set_alignment(std::vector<align> alignment) {
  if (alignment.size() != header_.size()) {
    throw logic_error("alignment size must match column count");
  }
  alignment_ = std::move(alignment);
  return *this;
}

text_table& text_table::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw logic_error("row has " + std::to_string(row.size()) + " fields, expected " +
                      std::to_string(header_.size()));
  }
  rows_.push_back(std::move(row));
  return *this;
}

std::string text_table::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }

  const auto rule = [&] {
    std::string line = "+";
    for (std::size_t w : widths) {
      line.append(w + 2, '-');
      line += '+';
    }
    line += '\n';
    return line;
  }();

  const auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::size_t pad = widths[c] - row[c].size();
      line += ' ';
      if (alignment_[c] == align::right) line.append(pad, ' ');
      line += row[c];
      if (alignment_[c] == align::left) line.append(pad, ' ');
      line += " |";
    }
    line += '\n';
    return line;
  };

  std::string out;
  if (!title_.empty()) {
    out += title_;
    out += '\n';
  }
  out += rule;
  out += render_row(header_);
  out += rule;
  for (const auto& row : rows_) out += render_row(row);
  out += rule;
  return out;
}

std::string format_number(double value, int digits) {
  if (std::isnan(value)) return "-";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char buf[64];
  const double mag = std::fabs(value);
  if (value != 0.0 && (mag < 1e-3 || mag >= 1e7)) {
    std::snprintf(buf, sizeof(buf), "%.*e", digits - 1, value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.*g", digits, value);
  }
  return buf;
}

std::string format_ratio(double value, int digits) {
  if (std::isnan(value)) return "-";
  return format_number(value, digits) + "x";
}

std::string format_percent(double fraction, int digits) {
  if (std::isnan(fraction)) return "-";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", digits, fraction * 100.0);
  return buf;
}

}  // namespace avtk
