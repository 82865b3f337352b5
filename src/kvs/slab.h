// Memcached-style slab allocator for key-value items.
//
// Memory is carved into fixed-size pages; each page belongs to a size class
// (chunk sizes grow geometrically, factor 1.25 like memcached's default).
// Allocation picks the smallest class that fits, pops the class free list or
// carves a new chunk; Free pushes back onto the class free list. The backend
// uses Capacity pressure + CLOCK-LRU to decide evictions.
//
// Pages are handed out in order from 32 MiB AlignedBuffer arenas, which are
// 2 MiB-aligned mappings on huge pages where the system provides them: a
// Multi-Get dereferences items at random, so on 4 KiB pages every item
// touch is also a dTLB miss (and drops the prefetch issued for it). The
// `memory_limit` accounting stays page-granular — an arena is only address
// space until its pages are carved, and the last arena is cut short so the
// pages it can ever hand out never pass the limit.
#ifndef SIMDHT_KVS_SLAB_H_
#define SIMDHT_KVS_SLAB_H_

#include <cstdint>
#include <vector>

#include "common/aligned_buffer.h"

namespace simdht {

class SlabAllocator {
 public:
  static constexpr std::size_t kPageBytes = 1 << 20;
  static constexpr std::size_t kArenaBytes = std::size_t{32} << 20;
  static constexpr std::size_t kMinChunk = 64;
  static constexpr double kGrowthFactor = 1.25;

  // `memory_limit` caps the total page memory (like memcached -m).
  explicit SlabAllocator(std::size_t memory_limit);

  SlabAllocator(const SlabAllocator&) = delete;
  SlabAllocator& operator=(const SlabAllocator&) = delete;

  // Returns the chunk address as a handle, or 0 when the size exceeds the
  // largest class or memory is exhausted (caller should evict and retry).
  std::uint64_t Alloc(std::size_t bytes);

  // Returns a chunk obtained from Alloc. `bytes` must be the original
  // request size (it selects the class).
  void Free(std::uint64_t handle, std::size_t bytes);

  // Size-class chunk size that would back an allocation of `bytes`;
  // 0 if too large.
  std::size_t ChunkSizeFor(std::size_t bytes) const;

  std::size_t memory_limit() const { return memory_limit_; }
  std::size_t allocated_pages_bytes() const { return pages_ * kPageBytes; }
  std::size_t live_chunks() const { return live_chunks_; }
  std::size_t num_classes() const { return classes_.size(); }

 private:
  struct SizeClass {
    std::size_t chunk_size = 0;
    std::vector<std::uint64_t> free_list;
    // Current partially-carved page, or null.
    std::uint8_t* carve_page = nullptr;
    std::size_t carve_offset = 0;
  };

  int ClassIndexFor(std::size_t bytes) const;
  bool AssignFreshPage(SizeClass* size_class);

  std::size_t memory_limit_;
  std::vector<SizeClass> classes_;
  std::vector<AlignedBuffer> arenas_;
  std::size_t pages_ = 0;             // pages handed to size classes
  std::uint8_t* arena_next_ = nullptr;  // next uncarved page of the arena
  std::size_t arena_pages_left_ = 0;    // pages arenas_.back() may still give
  std::size_t live_chunks_ = 0;
};

}  // namespace simdht

#endif  // SIMDHT_KVS_SLAB_H_
