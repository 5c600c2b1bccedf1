#include "util/csv.h"

#include "util/errors.h"

namespace avtk::csv {

namespace {

// The CSV scanner shared by parse(), parse_line() and scan_line(). Scans
// one row of `text` starting at `pos` and leaves `pos` after the row
// terminator. Every character of a field's value is a character of `text`
// (an escaped quote is the first of its pair), so the scanner hands the
// sink positions: `sink.push(i)` appends text[i] to the current field and
// `sink.end_field()` closes it. Returns false on an unterminated quoted
// field, or on a line break when `allow_newlines` is false.
template <typename Sink>
bool scan_row(std::string_view text, std::size_t& pos, char sep, bool allow_newlines,
              Sink& sink) {
  bool in_quotes = false;
  bool field_empty = true;
  while (true) {
    if (pos >= text.size()) {
      if (in_quotes) return false;
      break;
    }
    const char c = text[pos];
    if (in_quotes) {
      if (c == '"') {
        if (pos + 1 < text.size() && text[pos + 1] == '"') {
          sink.push(pos);
          field_empty = false;
          pos += 2;
        } else {
          in_quotes = false;
          ++pos;
        }
      } else {
        sink.push(pos);
        field_empty = false;
        ++pos;
      }
    } else if (c == '"' && field_empty) {
      in_quotes = true;
      ++pos;
    } else if (c == sep) {
      sink.end_field();
      field_empty = true;
      ++pos;
    } else if (c == '\n' || c == '\r') {
      if (!allow_newlines) return false;
      if (c == '\r' && pos + 1 < text.size() && text[pos + 1] == '\n') ++pos;
      ++pos;
      break;
    } else {
      sink.push(pos);
      field_empty = false;
      ++pos;
    }
  }
  sink.end_field();
  return true;
}

// Collects a row of owned fields.
struct row_sink {
  std::string_view text;
  row fields;
  std::string field;

  void push(std::size_t i) { field += text[i]; }
  void end_field() {
    fields.push_back(std::move(field));
    field.clear();
  }
};

// Collects views: a field whose characters are one contiguous run of the
// line is a view of the line; any other is copied into `out.scratch`.
struct view_sink {
  std::string_view text;
  line_fields& out;
  std::size_t start = 0;
  std::size_t len = 0;
  bool contiguous = true;
  std::size_t scratch_start = 0;

  void push(std::size_t i) {
    if (len == 0) {
      start = i;
    } else if (contiguous && start + len != i) {
      // Leave the run: copy it out. The scratch never outgrows the line,
      // so reserving the line's length once keeps earlier views valid.
      out.scratch.reserve(text.size());
      scratch_start = out.scratch.size();
      out.scratch.append(text.substr(start, len));
      contiguous = false;
    }
    if (!contiguous) out.scratch += text[i];
    ++len;
  }
  void end_field() {
    if (out.count < out.field.size()) {
      out.field[out.count] = contiguous ? text.substr(start, len)
                                        : std::string_view(out.scratch).substr(scratch_start);
    }
    ++out.count;
    len = 0;
    contiguous = true;
  }
};

bool needs_quoting(std::string_view field, char sep) {
  for (char c : field) {
    if (c == sep || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

}  // namespace

std::vector<row> parse(std::string_view text, char sep) {
  std::vector<row> rows;
  std::size_t pos = 0;
  while (pos < text.size()) {
    row_sink sink{text, {}, {}};
    if (!scan_row(text, pos, sep, /*allow_newlines=*/true, sink)) {
      throw parse_error("unterminated quoted CSV field");
    }
    rows.push_back(std::move(sink.fields));
  }
  return rows;
}

row parse_line(std::string_view line, char sep) {
  std::size_t pos = 0;
  row_sink sink{line, {}, {}};
  if (!scan_row(line, pos, sep, /*allow_newlines=*/false, sink)) {
    throw parse_error("unterminated quoted field or newline in CSV line");
  }
  return std::move(sink.fields);
}

bool scan_line(std::string_view line, line_fields& out, char sep) {
  out.count = 0;
  out.scratch.clear();
  std::size_t pos = 0;
  view_sink sink{line, out};
  return scan_row(line, pos, sep, /*allow_newlines=*/false, sink);
}

std::string format_line(const row& fields, char sep) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += sep;
    const auto& f = fields[i];
    if (needs_quoting(f, sep)) {
      out += '"';
      for (char c : f) {
        if (c == '"') out += '"';
        out += c;
      }
      out += '"';
    } else {
      out += f;
    }
  }
  return out;
}

std::string format(const std::vector<row>& rows, char sep) {
  std::string out;
  for (const auto& r : rows) {
    out += format_line(r, sep);
    out += '\n';
  }
  return out;
}

}  // namespace avtk::csv
