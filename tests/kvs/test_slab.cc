#include <gtest/gtest.h>

#include <set>

#include "kvs/slab.h"

namespace simdht {
namespace {

TEST(Slab, AllocatesDistinctChunks) {
  SlabAllocator slab(4 << 20);
  std::set<std::uint64_t> handles;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t h = slab.Alloc(100);
    ASSERT_NE(h, 0u);
    EXPECT_TRUE(handles.insert(h).second);
  }
  EXPECT_EQ(slab.live_chunks(), 1000u);
}

TEST(Slab, FreeListReusesChunks) {
  SlabAllocator slab(2 << 20);
  const std::uint64_t a = slab.Alloc(100);
  slab.Free(a, 100);
  EXPECT_EQ(slab.live_chunks(), 0u);
  const std::uint64_t b = slab.Alloc(100);
  EXPECT_EQ(a, b);  // LIFO free list
}

TEST(Slab, SizeClassesGrowGeometrically) {
  SlabAllocator slab(1 << 20);
  EXPECT_GT(slab.num_classes(), 10u);
  EXPECT_EQ(slab.ChunkSizeFor(1), SlabAllocator::kMinChunk);
  EXPECT_GE(slab.ChunkSizeFor(65), 65u);
  // Requests above a page are unserviceable.
  EXPECT_EQ(slab.ChunkSizeFor(SlabAllocator::kPageBytes + 1), 0u);
  EXPECT_EQ(slab.Alloc(SlabAllocator::kPageBytes + 1), 0u);
}

TEST(Slab, MemoryLimitEnforced) {
  SlabAllocator slab(SlabAllocator::kPageBytes);  // exactly one page
  std::size_t got = 0;
  // 1024-byte class chunks: at most ~1 MiB worth from the single page.
  while (slab.Alloc(1000) != 0) ++got;
  EXPECT_GT(got, 0u);
  EXPECT_LE(got * slab.ChunkSizeFor(1000), SlabAllocator::kPageBytes);
  EXPECT_LE(slab.allocated_pages_bytes(), SlabAllocator::kPageBytes);
}

TEST(Slab, ChunksDoNotOverlap) {
  SlabAllocator slab(2 << 20);
  const std::size_t chunk = slab.ChunkSizeFor(200);
  std::vector<std::uint64_t> handles;
  for (int i = 0; i < 100; ++i) handles.push_back(slab.Alloc(200));
  std::sort(handles.begin(), handles.end());
  for (std::size_t i = 1; i < handles.size(); ++i) {
    EXPECT_GE(handles[i] - handles[i - 1], chunk);
  }
}

TEST(Slab, DifferentClassesIndependentFreeLists) {
  SlabAllocator slab(4 << 20);
  const std::uint64_t small = slab.Alloc(64);
  const std::uint64_t large = slab.Alloc(4096);
  slab.Free(small, 64);
  // Freeing the small chunk must not satisfy a large request.
  const std::uint64_t large2 = slab.Alloc(4096);
  EXPECT_NE(large2, small);
  EXPECT_NE(large2, large);
}

// --- page arenas -----------------------------------------------------------
//
// Pages come from 32 MiB arenas, but the limit is still counted in pages:
// an arena is only address space until its pages are handed out.

// A class bigger than half a page: exactly one chunk per page, so every
// Alloc of it takes a fresh page.
std::size_t OneChunkPerPage(const SlabAllocator& slab) {
  return slab.ChunkSizeFor(SlabAllocator::kPageBytes / 2 + 1);
}

TEST(SlabArena, LimitNotAMultipleOfTheArenaSize) {
  // One full arena plus 8.5 MiB: 40 whole pages fit, the half page never.
  const std::size_t limit =
      SlabAllocator::kArenaBytes + 8 * SlabAllocator::kPageBytes +
      SlabAllocator::kPageBytes / 2;
  SlabAllocator slab(limit);
  const std::size_t big = OneChunkPerPage(slab);
  ASSERT_GT(big, SlabAllocator::kPageBytes / 2);
  std::size_t pages = 0;
  while (slab.Alloc(big) != 0) ++pages;
  EXPECT_EQ(pages, limit / SlabAllocator::kPageBytes);
  EXPECT_EQ(slab.allocated_pages_bytes(), pages * SlabAllocator::kPageBytes);
  EXPECT_LE(slab.allocated_pages_bytes(), limit);
}

TEST(SlabArena, AllocFailsExactlyWhenOneMorePageWouldPassTheLimit) {
  const std::size_t page = SlabAllocator::kPageBytes;
  for (const std::size_t limit :
       {page, 2 * page + page / 2, SlabAllocator::kArenaBytes + page,
        2 * SlabAllocator::kArenaBytes + 1}) {
    SlabAllocator slab(limit);
    const std::size_t big = OneChunkPerPage(slab);
    std::size_t granted = 0;
    for (;;) {
      const bool next_page_fits =
          slab.allocated_pages_bytes() + page <= limit;
      const std::uint64_t h = slab.Alloc(big);
      ASSERT_EQ(h != 0, next_page_fits) << "limit " << limit;
      if (h == 0) break;
      ++granted;
    }
    EXPECT_EQ(granted, limit / page) << "limit " << limit;
    // A class with a partly carved page, or a free chunk, still serves
    // requests once the page budget is spent.
    SlabAllocator small(limit);
    ASSERT_NE(small.Alloc(64), 0u);
    while (small.Alloc(big) != 0) {
    }
    EXPECT_NE(small.Alloc(64), 0u) << "limit " << limit;
  }
}

TEST(SlabArena, AllocatedPagesBytesCountsPagesNotArenas) {
  SlabAllocator slab(std::size_t{256} << 20);
  EXPECT_EQ(slab.allocated_pages_bytes(), 0u);
  const std::uint64_t first = slab.Alloc(100);
  ASSERT_NE(first, 0u);
  EXPECT_EQ(slab.allocated_pages_bytes(), SlabAllocator::kPageBytes);
  for (int i = 0; i < 100; ++i) ASSERT_NE(slab.Alloc(100), 0u);
  EXPECT_EQ(slab.allocated_pages_bytes(), SlabAllocator::kPageBytes);
  ASSERT_NE(slab.Alloc(4000), 0u);  // another class: a second page
  EXPECT_EQ(slab.allocated_pages_bytes(), 2 * SlabAllocator::kPageBytes);
  // Filling pages past one arena keeps the count page-exact.
  const std::size_t big = OneChunkPerPage(slab);
  const std::size_t extra = SlabAllocator::kArenaBytes /
                            SlabAllocator::kPageBytes;
  for (std::size_t i = 0; i < extra; ++i) ASSERT_NE(slab.Alloc(big), 0u);
  EXPECT_EQ(slab.allocated_pages_bytes(),
            (2 + extra) * SlabAllocator::kPageBytes);
}

TEST(SlabArena, NoChunkStraddlesAPage) {
  SlabAllocator slab(std::size_t{64} << 20);
  // 1 MiB is not a multiple of this class, so every page ends in a gap
  // the carver must skip.
  const std::size_t chunk = slab.ChunkSizeFor(90);
  ASSERT_NE(SlabAllocator::kPageBytes % chunk, 0u);
  const std::uint64_t first = slab.Alloc(90);
  ASSERT_NE(first, 0u);
  if (first % SlabAllocator::kPageBytes != 0) {
    GTEST_SKIP() << "arena not mapped page-aligned on this system";
  }
  const std::size_t per_page = SlabAllocator::kPageBytes / chunk;
  for (std::size_t i = 1; i < 3 * per_page + 5; ++i) {
    const std::uint64_t h = slab.Alloc(90);
    ASSERT_NE(h, 0u);
    EXPECT_EQ(h / SlabAllocator::kPageBytes,
              (h + chunk - 1) / SlabAllocator::kPageBytes)
        << "chunk " << i;
  }
  EXPECT_EQ(slab.allocated_pages_bytes(), 4 * SlabAllocator::kPageBytes);
}

}  // namespace
}  // namespace simdht
