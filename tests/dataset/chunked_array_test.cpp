// The persistent chunked array behind every failure_database domain
// (dataset/chunked_array.h): appends and iteration across chunk
// boundaries, whole and through a selection; a copy shares every chunk;
// an append after a copy clones only the partly filled tail; a relabel
// clones only the chunk it touches, and only while it is shared, and
// iteration walks from shared chunks into that clone and back.
#include "dataset/chunked_array.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "dataset/database.h"
#include "dataset/view.h"

namespace avtk::dataset {
namespace {

using ints = chunked_array<int>;
constexpr std::size_t C = ints::chunk_size;

// Entry i holds 3i + 1 with id 1000 + i.
ints make_array(std::size_t n) {
  ints a;
  for (std::size_t i = 0; i < n; ++i) a.push_back(static_cast<int>(3 * i + 1), 1000 + i);
  return a;
}

TEST(ChunkedArray, AppendAndIterateAcrossChunkBoundaries) {
  for (const std::size_t n : {std::size_t{0}, C - 1, C, C + 1, 2 * C + 1}) {
    SCOPED_TRACE(n);
    const ints a = make_array(n);
    EXPECT_EQ(a.size(), n);
    EXPECT_EQ(a.empty(), n == 0);
    EXPECT_EQ(a.chunk_count(), (n + C - 1) / C);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(a[i], static_cast<int>(3 * i + 1));
      ASSERT_EQ(a.id(i), 1000 + i);
    }

    // Whole-array iteration: the array's own iterator and a record_range.
    std::vector<int> seen(a.begin(), a.end());
    ASSERT_EQ(seen.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], static_cast<int>(3 * i + 1));
    const record_range<int> whole(a);
    ASSERT_EQ(whole.size(), n);
    std::size_t i = 0;
    for (const int v : whole) EXPECT_EQ(v, static_cast<int>(3 * i++ + 1));
    EXPECT_EQ(i, n);

    // Through a selection: every chunk's first and last entry, ascending.
    selection sel;
    for (std::size_t k = 0; k < a.chunk_count(); ++k) {
      sel.push_back(static_cast<std::uint32_t>(k * C));
      const std::size_t last = std::min(n, (k + 1) * C) - 1;
      if (last != k * C) sel.push_back(static_cast<std::uint32_t>(last));
    }
    const record_range<int> picked(a, sel);
    ASSERT_EQ(picked.size(), sel.size());
    std::size_t j = 0;
    for (const int v : picked) EXPECT_EQ(v, static_cast<int>(3 * sel[j++] + 1));
    EXPECT_EQ(j, sel.size());
  }
}

TEST(ChunkedArray, CopySharesEveryChunk) {
  const ints a = make_array(2 * C + 5);
  const ints b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  ASSERT_EQ(b.chunk_count(), 3u);
  for (std::size_t k = 0; k < a.chunk_count(); ++k) EXPECT_EQ(b.chunk_at(k), a.chunk_at(k));
  EXPECT_EQ(b.size(), a.size());
}

TEST(ChunkedArray, AppendAfterCopyClonesOnlyTheTail) {
  // Partly filled tail: the copy's append clones it and nothing else.
  const ints a = make_array(2 * C + 5);
  ints b = a;
  b.push_back(-1, 7);
  ASSERT_EQ(b.chunk_count(), 3u);
  EXPECT_EQ(b.chunk_at(0), a.chunk_at(0));
  EXPECT_EQ(b.chunk_at(1), a.chunk_at(1));
  EXPECT_NE(b.chunk_at(2), a.chunk_at(2));
  EXPECT_EQ(b.size(), 2 * C + 6);
  EXPECT_EQ(b[2 * C + 5], -1);
  EXPECT_EQ(b.id(2 * C + 5), 7u);
  // The source is untouched.
  EXPECT_EQ(a.size(), 2 * C + 5);
  EXPECT_EQ(a.chunk_at(2)->items.size(), 5u);
  for (std::size_t i = 0; i < b.size() - 1; ++i) ASSERT_EQ(b[i], a[i]);

  // The clone is now the copy's own: a second append writes it in place.
  const auto* own_tail = b.chunk_at(2);
  b.push_back(-2, 8);
  EXPECT_EQ(b.chunk_at(2), own_tail);

  // Full tail: an append after a copy opens a fresh chunk and clones none.
  const ints full = make_array(2 * C);
  ints grown = full;
  grown.push_back(-3, 9);
  ASSERT_EQ(grown.chunk_count(), 3u);
  EXPECT_EQ(grown.chunk_at(0), full.chunk_at(0));
  EXPECT_EQ(grown.chunk_at(1), full.chunk_at(1));
  EXPECT_EQ(full.chunk_count(), 2u);
}

disengagement_record make_event(int i) {
  disengagement_record d;
  d.maker = manufacturer::waymo;
  d.report_year = 2016;
  d.description = "event " + std::to_string(i);
  return d;
}

TEST(ChunkedArray, RelabelClonesOnlyItsOwnChunk) {
  failure_database db;
  for (int i = 0; i < static_cast<int>(2 * C + 5); ++i) db.add_disengagement(make_event(i));
  failure_database copy = db;

  const std::size_t target = C + 3;
  copy.relabel_disengagement(target, nlp::fault_tag::planner,
                             nlp::category_of(nlp::fault_tag::planner));
  const auto& mine = copy.disengagements();
  const auto& theirs = db.disengagements();
  EXPECT_EQ(mine.chunk_at(0), theirs.chunk_at(0));
  EXPECT_NE(mine.chunk_at(1), theirs.chunk_at(1));
  EXPECT_EQ(mine.chunk_at(2), theirs.chunk_at(2));
  EXPECT_EQ(mine[target].tag, nlp::fault_tag::planner);
  EXPECT_EQ(theirs[target].tag, nlp::fault_tag::unknown);
  EXPECT_EQ(mine[target].description, theirs[target].description);
  EXPECT_EQ(copy.version().disengagements, db.version().disengagements + 1);

  // Unshared now: relabelling in the same chunk again writes in place.
  const auto* owned = mine.chunk_at(1);
  copy.relabel_disengagement(target + 1, nlp::fault_tag::software,
                             nlp::category_of(nlp::fault_tag::software));
  EXPECT_EQ(mine.chunk_at(1), owned);
  EXPECT_EQ(theirs[target + 1].tag, nlp::fault_tag::unknown);

  EXPECT_THROW(copy.relabel_disengagement(mine.size(), nlp::fault_tag::planner,
                                          nlp::category_of(nlp::fault_tag::planner)),
               std::out_of_range);
}

TEST(ChunkedArray, IterateAcrossRelabelCloneBoundaries) {
  // A relabel clones the middle chunk of the copy, so its walk crosses
  // from a shared chunk into the clone and back into a shared one.
  failure_database db;
  const int n = static_cast<int>(3 * C + 7);
  for (int i = 0; i < n; ++i) db.add_disengagement(make_event(i));
  failure_database copy = db;
  const std::size_t target = 2 * C - 1;  // last entry of the cloned chunk
  copy.relabel_disengagement(target, nlp::fault_tag::planner,
                             nlp::category_of(nlp::fault_tag::planner));
  const auto& mine = copy.disengagements();
  ASSERT_NE(mine.chunk_at(1), db.disengagements().chunk_at(1));
  ASSERT_EQ(mine.chunk_at(2), db.disengagements().chunk_at(2));

  const auto expect_entry = [&](const disengagement_record& d, std::size_t i) {
    EXPECT_EQ(d.description, "event " + std::to_string(i)) << i;
    EXPECT_EQ(d.tag, i == target ? nlp::fault_tag::planner : nlp::fault_tag::unknown) << i;
  };

  // Whole array: the array's own iterator, then a record_range.
  std::size_t i = 0;
  for (auto it = mine.begin(); it != mine.end(); ++it) expect_entry(*it, i++);
  EXPECT_EQ(i, mine.size());
  i = 0;
  for (const auto& d : record_range<disengagement_record>(mine)) expect_entry(d, i++);
  EXPECT_EQ(i, mine.size());
  // A post-increment and operator-> land on the same entries.
  auto it = mine.begin();
  for (std::size_t k = 0; k < C; ++k) it++;
  EXPECT_EQ(it->description, "event " + std::to_string(C));

  // Through a selection straddling every boundary, the clone's included.
  selection sel;
  for (std::size_t k = 1; k < mine.chunk_count(); ++k) {
    sel.push_back(static_cast<std::uint32_t>(k * C - 1));
    sel.push_back(static_cast<std::uint32_t>(k * C));
  }
  std::size_t j = 0;
  for (const auto& d : record_range<disengagement_record>(mine, sel)) expect_entry(d, sel[j++]);
  EXPECT_EQ(j, sel.size());
}

}  // namespace
}  // namespace avtk::dataset
