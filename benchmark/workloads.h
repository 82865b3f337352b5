// Entry points of the four workloads, plus the standalone SIMD probe
// measurement the KV workload reconciles its backend time against.
#ifndef SIMDHT_BENCHMARK_WORKLOADS_H_
#define SIMDHT_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench_util.h"

namespace bench {

// ht-get-dram, ht-rw-l2. Returns the process exit code.
int RunHtWorkload(const Args& args, Report* report);

// kv-rw-llc, kv-get-dram. Returns the process exit code.
int RunKvWorkload(const Args& args, Report* report);

// Probe cost of `kernel_name` on a fresh SimdHashTable<u32,u32> of
// `capacity` holding `keys` uniform keys, in batches of `batch` keys with
// 95 % hits: with the default AMAC pipeline (probe) and without prefetch
// (kernel), alternating batches for `seconds`.
struct SimdReference {
  LayerTimer probe;
  LayerTimer kernel;
  std::uint64_t wrong = 0;
};
SimdReference MeasureSimdReference(const std::string& kernel_name,
                                   std::uint64_t capacity, std::uint64_t keys,
                                   std::size_t batch, double seconds,
                                   std::uint64_t seed);

}  // namespace bench

#endif  // SIMDHT_BENCHMARK_WORKLOADS_H_
