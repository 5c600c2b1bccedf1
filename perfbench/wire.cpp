#include "wire.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace avbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void fingerprint::add(std::string_view bytes) {
  // Word-at-a-time multiply-xorshift: cheap enough to run on the serve
  // loop's own thread for every response byte.
  constexpr std::uint64_t k = 0xff51afd7ed558ccdull;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * k;
    h ^= h >> 31;
  }
  std::uint64_t tail = bytes.size() - i;
  for (std::size_t s = 0; i < bytes.size(); ++i, s += 8) {
    tail ^= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i])) << (s + 8);
  }
  h = (h ^ tail) * k;
  h ^= h >> 29;
}

std::uint64_t hash_bytes(std::string_view bytes) {
  fingerprint f;
  f.add(bytes);
  return f.h;
}

void line_stream::push(std::string_view line) {
  bytes.append(line);
  bytes.push_back('\n');
  ends.push_back(bytes.size());
}

std::string_view line_stream::line(std::size_t i) const {
  const std::size_t begin = i == 0 ? 0 : ends[i - 1];
  return std::string_view(bytes).substr(begin, ends[i] - begin - 1);
}

paced_source::paced_source(const line_stream& lines, const std::vector<std::int64_t>* due_ns,
                           std::size_t limit)
    : lines_(lines), due_(due_ns), limit_(std::min(limit, lines.size())) {
}

paced_source::int_type paced_source::underflow() {
  if (next_ >= limit_) return traits_type::eof();
  std::size_t last = limit_;  // closed loop: everything at once
  std::int64_t now = now_ns();
  if (due_ != nullptr) {
    const std::int64_t asked = now;
    const std::int64_t due = t0_ + (*due_)[next_];
    if (now < due) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      now = now_ns();
      wake_late_.push_back(now - due);
    }
    last = next_ + 1;
    while (last < limit_ && t0_ + (*due_)[last] <= now) ++last;
    // A line already due when the loop asked was available at its due
    // time; one that fell due while the source slept, at the wake-up.
    for (std::size_t i = next_; i < last; ++i) {
      const std::int64_t d = t0_ + (*due_)[i];
      available_.push_back((d <= asked ? d : now) - t0_);
    }
  }
  char* base = const_cast<char*>(lines_.bytes.data());
  const std::size_t begin = next_ == 0 ? 0 : lines_.ends[next_ - 1];
  setg(base + begin, base + begin, base + lines_.ends[last - 1]);
  next_ = last;
  return traits_type::to_int_type(*gptr());
}

void inspect_response(std::string_view line, response_line& out) {
  constexpr std::string_view ok_prefix = R"({"schema":"avtk.serve.v1","ok":true)";
  out.ok = line.starts_with(ok_prefix);
  // The id member, when present, directly follows "ok"; fingerprint the
  // line without it so responses to equal requests compare equal.
  const std::size_t at = line.find(R"(,"id":)", 0);
  fingerprint f;
  if (at != std::string_view::npos && at < 48) {
    std::size_t p = at + 6;
    std::int64_t id = 0;
    while (p < line.size() && line[p] >= '0' && line[p] <= '9') id = id * 10 + (line[p++] - '0');
    out.id = id;
    f.add(line.substr(0, at));
    f.add(line.substr(p));
  } else {
    out.id = -1;
    f.add(line);
  }
  out.hash = f.h;
  out.code.clear();
  if (!out.ok) {
    const std::size_t c = line.find(R"("code":")");
    if (c != std::string_view::npos) {
      const std::size_t b = c + 8;
      out.code = std::string(line.substr(b, line.find('"', b) - b));
    }
  }
}

stamping_sink::stamping_sink(std::size_t expected_lines) {
  out_.reserve(expected_lines);
  current_.reserve(1 << 16);
}

void stamping_sink::finish_line() {
  response_line r;
  r.written_ns = now_ns();
  inspect_response(current_, r);
  out_.push_back(std::move(r));
  current_.clear();
}

stamping_sink::int_type stamping_sink::overflow(int_type c) {
  if (traits_type::eq_int_type(c, traits_type::eof())) return traits_type::not_eof(c);
  const char ch = traits_type::to_char_type(c);
  if (ch == '\n') {
    finish_line();
  } else {
    current_.push_back(ch);
  }
  return c;
}

std::streamsize stamping_sink::xsputn(const char* s, std::streamsize n) {
  const char* end = s + n;
  while (s < end) {
    const char* nl = static_cast<const char*>(std::memchr(s, '\n', end - s));
    if (nl == nullptr) {
      current_.append(s, end);
      break;
    }
    current_.append(s, nl);
    finish_line();
    s = nl + 1;
  }
  return n;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

}  // namespace avbench
