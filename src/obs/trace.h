// avtk/obs/trace.h
//
// Hierarchical stage spans for the Fig. 1 pipeline: a `trace` collects
// named, parented spans (document → OCR → parse → classify → analysis) with
// monotonic start offsets and durations. Any thread may open spans
// concurrently; span ids are handed out under a mutex and the finished
// trace is exported via obs/export.h.
//
// A null `trace*` everywhere means "tracing off": scoped_span degrades to a
// no-op so instrumented code needs no conditional compilation and the
// pipeline's output is identical with tracing enabled or disabled (tested).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/clock.h"

namespace avtk::obs {

/// One completed (or still-open) span. Offsets are nanoseconds since the
/// trace epoch, so spans from different threads share one timeline.
struct span {
  std::uint64_t id = 0;      ///< 1-based; 0 is "no span" / root parent
  std::uint64_t parent = 0;  ///< enclosing span id, 0 for roots
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = -1;  ///< -1 while still open
};

class trace {
 public:
  trace() = default;
  trace(const trace&) = delete;
  trace& operator=(const trace&) = delete;

  /// Opens a span; returns its id (use as `parent` for children).
  std::uint64_t begin_span(std::string name, std::uint64_t parent = 0);

  /// Closes a span opened by begin_span. Closing twice keeps the first end.
  void end_span(std::uint64_t id);

  /// Copy of all spans recorded so far (open spans have duration_ns == -1).
  std::vector<span> spans() const;

  /// Nanoseconds since the trace was constructed.
  std::int64_t elapsed_ns() const { return epoch_.elapsed_ns(); }

  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<span> spans_;
  stopwatch epoch_;
};

/// RAII span handle. With a null trace every operation is a no-op.
class scoped_span {
 public:
  scoped_span(trace* t, std::string name, std::uint64_t parent = 0) : trace_(t) {
    if (trace_ != nullptr) id_ = trace_->begin_span(std::move(name), parent);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
  ~scoped_span() { close(); }

  /// Ends the span early (idempotent).
  void close() {
    if (trace_ != nullptr && id_ != 0) trace_->end_span(id_);
    id_ = 0;
  }

  /// Id for parenting child spans; 0 when tracing is off.
  std::uint64_t id() const { return id_; }

 private:
  trace* trace_;
  std::uint64_t id_ = 0;
};

}  // namespace avtk::obs
