// perfbench/wire.h
//
// The load generator around serve::run_serve_loop: an input streambuf that
// releases request lines at their due times and an output streambuf that
// timestamps and fingerprints every response line as the loop writes it.
//
// Open loop: every line has a due time (ns after the pass starts). When the
// loop asks for input, the source sleeps until the next line is due, then
// releases every line whose due time has passed in one read — sleep
// granularity (~50-100 us on Linux) is coarser than a warm request, so
// one-line-per-wakeup pacing would throttle the loop, not the offered
// rate. Latency runs from a line's due time to the write of its response
// line, so a loop that falls behind is charged for the queueing too.
//
// Closed loop: no due times; the whole stream is readable at once and the
// loop runs at its own pace (bounded by its in-flight window).
#pragma once

#include <cstddef>
#include <cstdint>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace avbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();

/// 64-bit fingerprint of a byte string, for response equality checks.
struct fingerprint {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  void add(std::string_view bytes);
};
std::uint64_t hash_bytes(std::string_view bytes);

/// Request lines as one contiguous buffer ('\n'-terminated lines).
struct line_stream {
  std::string bytes;
  std::vector<std::size_t> ends;  ///< one past each line's '\n'

  void push(std::string_view line);
  std::size_t size() const { return ends.size(); }
  std::string_view line(std::size_t i) const;  ///< without the '\n'
};

/// The paced input side. `due_ns` (one entry per line, non-decreasing,
/// relative to start()) selects the open loop; nullptr selects the closed
/// loop.
class paced_source : public std::streambuf {
 public:
  paced_source(const line_stream& lines, const std::vector<std::int64_t>* due_ns,
               std::size_t limit);

  void start(std::int64_t t0_ns) { t0_ = t0_ns; }

  /// How late the source woke for a due line it had to wait for (ns):
  /// the generator's own lateness, not the loop's.
  const std::vector<std::int64_t>& wake_late_ns() const { return wake_late_; }

  /// Per released line, when the loop could first have read it (ns after
  /// start()): its due time, or the wake-up if the source overslept it.
  /// Open loop only.
  const std::vector<std::int64_t>& available_ns() const { return available_; }

 protected:
  int_type underflow() override;

 private:
  const line_stream& lines_;
  const std::vector<std::int64_t>* due_;
  std::size_t limit_;
  std::size_t next_ = 0;
  std::int64_t t0_ = 0;
  std::vector<std::int64_t> wake_late_;
  std::vector<std::int64_t> available_;
};

/// One response line as the sink saw it.
struct response_line {
  std::int64_t written_ns = 0;  ///< absolute ns when its '\n' was written
  std::int64_t id = -1;         ///< echoed numeric id (-1: none)
  bool ok = false;
  std::uint64_t hash = 0;       ///< fingerprint of the line minus its id member
  std::string code;             ///< error code of an ok:false line
};

/// Parses one response envelope into `out` (all but written_ns).
void inspect_response(std::string_view line, response_line& out);

/// The timestamping output side.
class stamping_sink : public std::streambuf {
 public:
  explicit stamping_sink(std::size_t expected_lines);
  std::vector<response_line> take_lines() { return std::move(out_); }

 protected:
  int_type overflow(int_type c) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  void finish_line();
  std::string current_;
  std::vector<response_line> out_;
};

/// Everything one pass through run_serve_loop produced.
struct pass_result {
  std::int64_t start_ns = 0;  ///< absolute ns when the pass started
  std::int64_t wall_ns = 0;
  std::vector<std::int64_t> latency_ns;  ///< per line: response write - due (or - start)
  std::vector<response_line> responses;
  std::vector<std::int64_t> wake_late_ns;
  std::vector<std::int64_t> available_ns;  ///< open loop: see paced_source
  /// Lines answered after the last line was due: a loop that keeps up
  /// leaves the handful in flight, one that does not leaves a share of the
  /// stream proportional to the overload.
  std::size_t backlog = 0;
};

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

}  // namespace avbench
