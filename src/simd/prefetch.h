// Shared software-prefetch primitives.
//
// Batched lookups know the whole probe stream up front, so the candidate
// buckets of upcoming keys can be pulled into cache while the current keys
// are being compared — that overlap is what hides the random-access
// latency dominating out-of-cache tables. The pipelined engine
// (pipeline.h) decides the schedule: it drives these primitives a group of
// keys ahead of a kernel, or hands the kernel a prefetch distance that the
// kernel's compare loop runs through PrefetchStream.
#ifndef SIMDHT_SIMD_PREFETCH_H_
#define SIMDHT_SIMD_PREFETCH_H_

#include <cstddef>

#include "ht/layout.h"

namespace simdht {

// Prefetches every cache line of bucket `bucket` into L2.
SIMDHT_ALWAYS_INLINE void PrefetchBucket(const TableView& view,
                                         std::uint64_t bucket) {
  const std::uint8_t* ptr = view.bucket_ptr(bucket);
  const unsigned bytes = view.spec.bucket_bytes();
  for (unsigned off = 0; off < bytes; off += kCacheLineBytes) {
    __builtin_prefetch(ptr + off, 0, 1);
  }
}

// Prefetches all N candidate buckets of `key` into L2. For families with a
// control-byte lane (view.meta != null, ways == 1) the home group's lane
// window is prefetched too — the Swiss probe touches the lane before any
// key slot, so its line is the first miss to hide.
template <typename K>
SIMDHT_ALWAYS_INLINE void PrefetchCandidateBuckets(const TableView& view,
                                                   K key) {
  for (unsigned w = 0; w < view.spec.ways; ++w) {
    const std::uint64_t b = view.hash.template Bucket<K>(w, key);
    PrefetchBucket(view, b);
    if (view.meta != nullptr) {
      __builtin_prefetch(view.meta + b * view.spec.slots, 0, 1);
    }
  }
}

// The fused per-key prefetch interleave a kernel runs for
// ProbeBatch::prefetch_distance = D: construction primes keys [0, D), and
// Before(i), called right before key i is probed, prefetches key i+D. With
// D = 0 both do nothing.
template <typename K>
class PrefetchStream {
 public:
  PrefetchStream(const TableView& view, const K* keys, std::size_t n,
                 std::size_t distance)
      : view_(view), keys_(keys), distance_(distance),
        end_(distance != 0 ? n : 0) {
    for (std::size_t i = 0; i < distance && i < n; ++i) {
      PrefetchCandidateBuckets<K>(view_, keys_[i]);
    }
  }

  SIMDHT_ALWAYS_INLINE void Before(std::size_t i) const {
    if (i + distance_ < end_) {
      PrefetchCandidateBuckets<K>(view_, keys_[i + distance_]);
    }
  }

 private:
  const TableView& view_;
  const K* keys_;
  std::size_t distance_;
  std::size_t end_;  // 0 when not prefetching, so Before() never fires
};

}  // namespace simdht

#endif  // SIMDHT_SIMD_PREFETCH_H_
