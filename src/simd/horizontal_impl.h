// Generic horizontal-vectorization lookup core (paper Algorithm 1).
//
// One probe key is replicated across the vector ("vec_set_lanes"), whole
// buckets are loaded ("vec_load_buckets") and compared in a single
// instruction ("vec_cmpeq"); a match mask then locates the payload
// ("vec_reduce"). The core is templated on an ISA policy `Ops` supplied by
// the per-ISA translation units, so this header must only be included from
// files compiled with the matching -m flags.
//
// Probe shapes handled (all decided at runtime from the TableView):
//   * bucket block  < vector: 1 bucket/vec, upper lanes masked off
//   * bucket block x2 <= vector (>=256-bit): 2 buckets/vec — the paper's
//     "pessimistic" probe of both candidate buckets at once
//   * bucket block  > vector: chunked probe, ceil(block/width) loads per
//     bucket — the Fig 7(b) AVX2-over-(2,8)-BCHT configuration
#ifndef SIMDHT_SIMD_HORIZONTAL_IMPL_H_
#define SIMDHT_SIMD_HORIZONTAL_IMPL_H_

#include <cstdint>
#include <cstring>

#include "common/compiler.h"
#include "simd/kernel.h"
#include "simd/prefetch.h"

namespace simdht {
namespace detail {

// Key-lane bit pattern for `count` slots starting at slot 0 of a block.
// In the interleaved layout key lanes are the even lanes; in split layout
// every block lane is a key lane. `bits_per_lane` is how many mask bits the
// ISA's compare emits per K-sized lane (movemask_epi8 emits 2 per u16).
inline std::uint64_t SlotKeyMask(unsigned count, bool interleaved,
                                 unsigned bits_per_lane) {
  std::uint64_t mask = 0;
  for (unsigned s = 0; s < count; ++s) {
    const unsigned lane = interleaved ? 2 * s : s;
    mask |= std::uint64_t{1} << (lane * bits_per_lane);
  }
  return mask;
}

template <typename K, typename V, typename Ops>
std::uint64_t HorizontalLookupImpl(const TableView& view,
                                   const ProbeBatch& batch) {
  const K* keys = batch.keys_as<K>();
  V* vals = batch.vals_as<V>();
  std::uint8_t* found = batch.found;
  const std::size_t n = batch.size;
  const LayoutSpec& spec = view.spec;
  const unsigned ways = spec.ways;
  const unsigned m = spec.slots;
  const bool interleaved =
      spec.bucket_layout == BucketLayout::kInterleaved;

  constexpr unsigned kLanes = Ops::kWidthBits / (8 * sizeof(K));
  constexpr unsigned kHalfLanes = kLanes / 2;
  constexpr unsigned kBpl = Ops::kBitsPerLane;

  // Lanes one bucket's comparable block occupies.
  const unsigned block_lanes = interleaved ? 2 * m : m;
  const unsigned buckets_per_vec =
      HorizontalBucketsPerVector(spec, Ops::kWidthBits);
  // Chunked mode when the block does not fit the vector at all.
  const unsigned slots_per_chunk = interleaved ? kLanes / 2 : kLanes;
  const unsigned chunks =
      buckets_per_vec >= 1 ? 1 : (m + slots_per_chunk - 1) / slots_per_chunk;
  const unsigned chunk_bytes = Ops::kWidthBits / 8;

  const std::uint64_t one_block_mask =
      SlotKeyMask(chunks > 1 ? slots_per_chunk : m, interleaved, kBpl);
  const std::uint64_t two_block_mask =
      one_block_mask | (one_block_mask << (kHalfLanes * kBpl));
  (void)block_lanes;

  const unsigned step = buckets_per_vec >= 2 ? 2 : 1;
  const unsigned groups = (ways + step - 1) / step;

  // Fused prefetch interleave (batch.prefetch_distance, set by the
  // pipeline engine for out-of-L2 tables); with distance 0 this is the bare
  // compare loop.
  const PrefetchStream<K> prefetch(view, keys, n, batch.prefetch_distance);
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prefetch.Before(i);
    const K key = keys[i];
    const auto keyvec = Ops::Splat(key);
    std::uint8_t hit = 0;

    std::uint32_t buckets[kMaxWays];
    for (unsigned w = 0; w < ways; ++w) {
      buckets[w] = view.hash.template Bucket<K>(w, key);
    }

    if (SIMDHT_LIKELY(chunks <= 1)) {
      // Probe every candidate bucket branchlessly (the "pessimistic"
      // policy): the loads are independent, so the memory system overlaps
      // them, and the single data-dependent branch comes after all probes.
      // Each probe's mask occupies exactly kLanes * kBpl bits; with at
      // most kMaxWays probe groups every supported shape fits in 64 bits,
      // so all probes fuse into one word and the whole key resolves with a
      // single ctz + branch.
      // (Shapes where a probe mask is wider than 16 bits — 16-bit keys on
      // 256/512-bit vectors — always probe 2 buckets per vector, capping
      // groups at 2, so groups * kGroupShift never exceeds 64.)
      constexpr unsigned kGroupShift = kLanes * kBpl;
      std::uint64_t combined = 0;
      for (unsigned g = 0; g < groups; ++g) {
        const unsigned first = g * step;
        const bool pair = step == 2 && first + 1 < ways;
        typename Ops::Vec data;
        std::uint64_t valid;
        if (pair) {
          data = Ops::LoadTwoHalves(view.bucket_ptr(buckets[first]),
                                    view.bucket_ptr(buckets[first + 1]));
          valid = two_block_mask;
        } else {
          data = Ops::LoadFull(view.bucket_ptr(buckets[first]));
          valid = one_block_mask;
        }
        combined |= (Ops::CmpMask(data, keyvec) & valid)
                    << (g * kGroupShift);
      }
      if (combined != 0) {
        const unsigned bit =
            static_cast<unsigned>(__builtin_ctzll(combined));
        const unsigned g = bit / kGroupShift;
        unsigned lane = (bit % kGroupShift) / kBpl;
        std::uint32_t b = buckets[g * step];
        if (lane >= kHalfLanes && step == 2) {
          b = buckets[g * step + 1];
          lane -= kHalfLanes;
        }
        const unsigned slot = interleaved ? lane / 2 : lane;
        V value;
        std::memcpy(&value, view.val_ptr(b, slot), sizeof(V));
        vals[i] = value;
        hit = 1;
      }
    } else {
      // Chunked probe: the bucket spans several vectors (Fig 7b's
      // narrow-vector configuration).
      for (unsigned g = 0; g < ways && !hit; ++g) {
        const std::uint8_t* base = view.bucket_ptr(buckets[g]);
        for (unsigned c = 0; c < chunks && !hit; ++c) {
          const unsigned first_slot = c * slots_per_chunk;
          const unsigned here =
              m - first_slot < slots_per_chunk ? m - first_slot
                                               : slots_per_chunk;
          const std::uint64_t valid =
              here == slots_per_chunk
                  ? one_block_mask
                  : SlotKeyMask(here, interleaved, kBpl);
          const auto data = Ops::LoadFull(base + c * chunk_bytes);
          std::uint64_t mask = Ops::CmpMask(data, keyvec) & valid;
          if (mask != 0) {
            const unsigned lane =
                static_cast<unsigned>(__builtin_ctzll(mask)) / kBpl;
            const unsigned slot =
                first_slot + (interleaved ? lane / 2 : lane);
            V value;
            std::memcpy(&value, view.val_ptr(buckets[g], slot), sizeof(V));
            vals[i] = value;
            hit = 1;
          }
        }
      }
    }

    if (!hit) vals[i] = V{0};
    found[i] = hit;
    hits += hit;
  }
  return hits;
}

}  // namespace detail
}  // namespace simdht

#endif  // SIMDHT_SIMD_HORIZONTAL_IMPL_H_
