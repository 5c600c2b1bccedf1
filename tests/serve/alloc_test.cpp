// Heap allocations on the serve loop's hit path. This binary replaces the
// global operator new with a counting one (hence a binary of its own: the
// counter must leak into no other suite), warms an engine with serve_hot's
// 45 lines, then serves them again through run_serve_loop, every line a
// cache hit. The loop's one-off allocations (its line buffer, the window's
// slots, the reader's buffers growing to their largest line) are the same
// for any number of rounds once every line has passed every slot, so the
// difference between a long run and a short one, divided by the extra
// lines, is what one hit line allocates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <new>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "serve_test_util.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Every unaligned form is replaced, so each allocation the library makes
// (std::stable_sort's buffer takes the nothrow one) is counted and freed
// by the same allocator.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n) {
  if (void* p = operator new(n, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return operator new(n, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace avtk::serve {
namespace {

// The most a hit line may allocate, as a count per line. The DOM decoder,
// the copying lookup and the envelope temporaries took 12.6.
constexpr double k_max_allocations_per_hit_line = 0.0;

std::string rounds_of(const std::vector<std::string>& lines, std::size_t rounds) {
  std::string out;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const auto& line : lines) out += line + '\n';
  }
  return out;
}

// Drops what is written to it, without buffering.
class null_sink : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

// Allocations made while run_serve_loop answers `stream`, all of it hits.
std::size_t allocations_serving(query_engine& engine, const std::string& stream) {
  std::istringstream in(stream);
  null_sink sink;
  std::ostream out(&sink);
  const std::size_t before = g_allocations.load();
  const auto stats = run_serve_loop(engine, in, out);
  const std::size_t after = g_allocations.load();
  EXPECT_EQ(stats.cache_hits, stats.requests);
  return after - before;
}

TEST(ServeAllocations, HitLinesThroughTheServeLoop) {
  const auto lines = testing::hot_lines();
  ASSERT_EQ(lines.size(), 45u);
  query_engine engine(testing::make_test_database(), {.threads = 2});
  for (const auto& line : lines) handle_request_line(engine, line);  // warm every entry

  constexpr std::size_t k_short = 8;
  constexpr std::size_t k_long = 40;
  const std::size_t short_run = allocations_serving(engine, rounds_of(lines, k_short));
  const std::size_t long_run = allocations_serving(engine, rounds_of(lines, k_long));
  const double per_line = (static_cast<double>(long_run) - static_cast<double>(short_run)) /
                          static_cast<double>((k_long - k_short) * lines.size());
  std::printf("allocations per hit line: %.3f (runs of %zu and %zu lines: %zu and %zu)\n",
              per_line, k_short * lines.size(), k_long * lines.size(), short_run, long_run);
  EXPECT_LE(per_line, k_max_allocations_per_hit_line);
}

TEST(ServeAllocations, DecodingAQueryLineIntoAReusedTargetAllocatesNothing) {
  const auto lines = testing::hot_lines();
  parsed_request req;
  for (const auto& line : lines) parse_request(line, req);  // grow the buffers
  const std::size_t before = g_allocations.load();
  for (const auto& line : lines) parse_request(line, req);
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

}  // namespace
}  // namespace avtk::serve
