// Software-prefetch pipelined batch-lookup engine.
//
// The compare kernels (scalar, horizontal, vertical) issue dependent loads:
// hash the key, then fetch the candidate buckets. Once the table exceeds
// the LLC every probe stalls on DRAM. The engine decides every memory
// schedule — a software pipeline layered over *any* registered kernel;
// kernels at most honour the prefetch distance it hands them:
//
//   kGroup  Group prefetch: split the batch into mini-batches of
//           `group_size` keys. Hash every key of group g+1 and prefetch both
//           candidate buckets, then hand group g to the compare kernel.
//           By the time the kernel reaches group g+1 its lines are in L2.
//   kAmac   AMAC-style interleaving (after Kocberber et al.'s Asynchronous
//           Memory Access Chaining). A cuckoo probe's dependent chain is one
//           hop (hash -> candidate buckets, both computable from the key),
//           so AMAC's state machine degenerates to a rotating window: on
//           the scalar and horizontal cuckoo kernels the interleave is
//           fused into the kernel's own compare loop (ProbeBatch::
//           prefetch_distance) — after a prime of kPrefetchDistance keys,
//           key i+D's candidate buckets are prefetched right before key i
//           is probed. One probe's worth of prefetch per compare step keeps
//           a steady D-deep miss stream without the bursts that overrun the
//           core's line-fill buffers. Tables that fit the core's L2 take
//           the direct path instead. Vertical and Swiss kernels keep the
//           windowed slice schedule (group bursts, amac_groups deep).
//
// Except for the fused path, the kernel sees plain ProbeBatch slices, so
// the engine plugs in behind every kernel family registered in kernel.h;
// results are bit-identical to the direct path in all cases.
#ifndef SIMDHT_SIMD_PIPELINE_H_
#define SIMDHT_SIMD_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "simd/kernel.h"

namespace simdht {

// Keys between a prefetch and the probe that consumes it on the fused AMAC
// path: deep enough to cover a DRAM round trip, shallow enough that 2 x D
// outstanding lines stay inside the line-fill buffers. On a 64 MiB (2,4)
// table at batch 96, D = 8, 16 and 32 measured within noise of each other
// (micro_prefetch_pipeline); 16 sits in the middle.
inline constexpr unsigned kPrefetchDistance = 16;

// Per-core L2 size (sysconf, read once; 1 MiB when the OS does not say).
// Tables no larger than this skip prefetching on the fused AMAC path.
std::size_t CoreL2Bytes();

// How the batch-lookup engine schedules candidate-bucket prefetches.
enum class PrefetchPolicy : std::uint8_t {
  kNone = 0,   // direct: hand the whole batch straight to the kernel
  kGroup = 1,  // group prefetch: one mini-batch of lines ahead
  kAmac = 2,   // AMAC-style: `amac_groups` mini-batches in flight
};

const char* PrefetchPolicyName(PrefetchPolicy policy);

// Parses "none" / "group" / "amac"; returns false on unknown names.
bool ParsePrefetchPolicy(const std::string& name, PrefetchPolicy* out);

// Knobs for PipelinedLookup. The defaults are the crossover sweet spot on
// the machines measured by bench/micro_prefetch_pipeline (see
// docs/kernels.md): large enough to cover DRAM latency, small enough that
// the prefetched lines still live in L2 when the kernel consumes them.
struct PipelineConfig {
  PrefetchPolicy policy = PrefetchPolicy::kNone;
  unsigned group_size = 32;  // keys per mini-batch (slice schedules)
  unsigned amac_groups = 4;  // mini-batches in flight (kAmac slice only)

  // Label suffix for design points: "direct", "group:32", "amac:4x32".
  std::string Describe() const;

  // Rejects zero-sized knobs. Returns false + reason on violation.
  bool Validate(std::string* why = nullptr) const;
};

// Runs `kernel` over `batch` with the prefetch schedule in `config`.
// Produces results bit-identical to kernel.Lookup(view, batch) — the policy
// only changes when candidate buckets are prefetched, never what is
// compared. Returns the number of keys found; maintains batch.stats
// (including prefetch_groups) when present.
//
// batch.key_bits/val_bits may be 0 (untyped legacy callers); the engine
// fills them from view.spec before slicing.
std::uint64_t PipelinedLookup(const KernelInfo& kernel, const TableView& view,
                              const ProbeBatch& batch,
                              const PipelineConfig& config);

}  // namespace simdht

#endif  // SIMDHT_SIMD_PIPELINE_H_
