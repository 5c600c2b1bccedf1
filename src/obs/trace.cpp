#include "obs/trace.h"

namespace avtk::obs {

std::uint64_t trace::begin_span(std::string name, std::uint64_t parent) {
  const std::int64_t start = epoch_.elapsed_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = std::move(name);
  s.start_ns = start;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void trace::end_span(std::uint64_t id) {
  const std::int64_t now = epoch_.elapsed_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > spans_.size()) return;
  span& s = spans_[id - 1];
  if (s.duration_ns < 0) s.duration_ns = now - s.start_ns;
}

std::vector<span> trace::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t trace::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

}  // namespace avtk::obs
