#include "kvs/slab.h"

#include <algorithm>

namespace simdht {

SlabAllocator::SlabAllocator(std::size_t memory_limit)
    : memory_limit_(memory_limit) {
  // Build size classes 64, 80, 100, ... up to one page.
  std::size_t size = kMinChunk;
  while (size <= kPageBytes) {
    SizeClass sc;
    sc.chunk_size = size;
    classes_.push_back(std::move(sc));
    std::size_t next = static_cast<std::size_t>(
        static_cast<double>(size) * kGrowthFactor);
    // Keep chunks 8-byte aligned and strictly growing.
    next = (next + 7) & ~std::size_t{7};
    if (next <= size) next = size + 8;
    size = next;
  }
}

int SlabAllocator::ClassIndexFor(std::size_t bytes) const {
  if (bytes == 0) bytes = 1;
  // Classes are few (~50): linear scan is fine and branch-predictable.
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (classes_[i].chunk_size >= bytes) return static_cast<int>(i);
  }
  return -1;
}

std::size_t SlabAllocator::ChunkSizeFor(std::size_t bytes) const {
  const int idx = ClassIndexFor(bytes);
  return idx < 0 ? 0 : classes_[static_cast<std::size_t>(idx)].chunk_size;
}

bool SlabAllocator::AssignFreshPage(SizeClass* size_class) {
  if (allocated_pages_bytes() + kPageBytes > memory_limit_) return false;
  if (arena_pages_left_ == 0) {
    const std::size_t pages_allowed = memory_limit_ / kPageBytes - pages_;
    arena_pages_left_ = std::min(kArenaBytes / kPageBytes, pages_allowed);
    // Never below one huge page, so even a short last arena is a 2 MiB-
    // aligned mapping (its pages stay 1 MiB-aligned); the bytes past the
    // pages it hands out are never touched.
    arenas_.emplace_back(
        std::max(arena_pages_left_ * kPageBytes, kHugePageBytes));
    arena_next_ = arenas_.back().data();
  }
  size_class->carve_page = arena_next_;
  size_class->carve_offset = 0;
  arena_next_ += kPageBytes;
  --arena_pages_left_;
  ++pages_;
  return true;
}

std::uint64_t SlabAllocator::Alloc(std::size_t bytes) {
  const int idx = ClassIndexFor(bytes);
  if (idx < 0) return 0;
  SizeClass& sc = classes_[static_cast<std::size_t>(idx)];

  if (!sc.free_list.empty()) {
    const std::uint64_t handle = sc.free_list.back();
    sc.free_list.pop_back();
    ++live_chunks_;
    return handle;
  }

  if (sc.carve_page == nullptr ||
      sc.carve_offset + sc.chunk_size > kPageBytes) {
    if (!AssignFreshPage(&sc)) return 0;
  }
  const std::uint64_t handle =
      reinterpret_cast<std::uint64_t>(sc.carve_page + sc.carve_offset);
  sc.carve_offset += sc.chunk_size;
  ++live_chunks_;
  return handle;
}

void SlabAllocator::Free(std::uint64_t handle, std::size_t bytes) {
  const int idx = ClassIndexFor(bytes);
  if (idx < 0 || handle == 0) return;
  classes_[static_cast<std::size_t>(idx)].free_list.push_back(handle);
  --live_chunks_;
}

}  // namespace simdht
