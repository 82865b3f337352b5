#include "simd/pipeline.h"

#include <unistd.h>

#include <algorithm>

#include "simd/prefetch.h"

namespace simdht {
namespace {

// Prefetches all candidate buckets of keys [first, last).
template <typename K>
void PrefetchGroup(const TableView& view, const K* keys, std::size_t first,
                   std::size_t last) {
  for (std::size_t i = first; i < last; ++i) {
    PrefetchCandidateBuckets<K>(view, keys[i]);
  }
}

// The prime/steady pipeline, shared by both policies: kGroup is simply
// depth == 1, kAmac keeps `depth` groups in flight. Group g+depth is
// prefetched right before the kernel consumes group g, so the schedule
// keeps a constant window of depth*group_size keys' worth of candidate
// lines outstanding.
template <typename K>
std::uint64_t RunPipeline(const KernelInfo& kernel, const TableView& view,
                          const ProbeBatch& batch, std::size_t group,
                          std::size_t depth) {
  const K* keys = batch.keys_as<K>();
  const std::size_t n = batch.size;

  // Prime: prefetch the first `depth` groups.
  const std::size_t primed = std::min(n, depth * group);
  PrefetchGroup<K>(view, keys, 0, primed);
  std::uint64_t groups_issued = (primed + group - 1) / group;

  std::uint64_t found = 0;
  for (std::size_t off = 0; off < n; off += group) {
    const std::size_t ahead = off + depth * group;
    if (ahead < n) {
      PrefetchGroup<K>(view, keys, ahead, std::min(n, ahead + group));
      ++groups_issued;
    }
    const std::size_t chunk = std::min(group, n - off);
    found += kernel.Lookup(view, batch.Slice(off, chunk));
  }
  if (batch.stats != nullptr) batch.stats->prefetch_groups += groups_issued;
  return found;
}

}  // namespace

std::size_t CoreL2Bytes() {
  static const std::size_t bytes = [] {
    const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
    return l2 > 0 ? static_cast<std::size_t>(l2) : std::size_t{1} << 20;
  }();
  return bytes;
}

const char* PrefetchPolicyName(PrefetchPolicy policy) {
  switch (policy) {
    case PrefetchPolicy::kNone:
      return "none";
    case PrefetchPolicy::kGroup:
      return "group";
    case PrefetchPolicy::kAmac:
      return "amac";
  }
  return "?";
}

bool ParsePrefetchPolicy(const std::string& name, PrefetchPolicy* out) {
  if (name == "none") {
    *out = PrefetchPolicy::kNone;
  } else if (name == "group") {
    *out = PrefetchPolicy::kGroup;
  } else if (name == "amac") {
    *out = PrefetchPolicy::kAmac;
  } else {
    return false;
  }
  return true;
}

std::string PipelineConfig::Describe() const {
  switch (policy) {
    case PrefetchPolicy::kNone:
      return "direct";
    case PrefetchPolicy::kGroup:
      return "group:" + std::to_string(group_size);
    case PrefetchPolicy::kAmac:
      return "amac:" + std::to_string(amac_groups) + "x" +
             std::to_string(group_size);
  }
  return "?";
}

bool PipelineConfig::Validate(std::string* why) const {
  if (policy != PrefetchPolicy::kNone && group_size == 0) {
    if (why != nullptr) *why = "group_size must be >= 1";
    return false;
  }
  if (policy == PrefetchPolicy::kAmac && amac_groups == 0) {
    if (why != nullptr) *why = "amac_groups must be >= 1";
    return false;
  }
  return true;
}

std::uint64_t PipelinedLookup(const KernelInfo& kernel, const TableView& view,
                              const ProbeBatch& batch,
                              const PipelineConfig& config) {
  // Normalize an untyped batch: Slice() and the key loads below need the
  // span element widths, which for a kernel call always match the table's.
  ProbeBatch typed = batch;
  if (typed.key_bits == 0) typed.key_bits = view.spec.key_bits;
  if (typed.val_bits == 0) typed.val_bits = view.spec.val_bits;

  if (config.policy == PrefetchPolicy::kNone || typed.size == 0) {
    return kernel.Lookup(view, typed);
  }

  // AMAC on the scalar and horizontal cuckoo kernels: the fused per-key
  // interleave, kPrefetchDistance keys deep, run inside the kernel's own
  // compare loop. Tables that fit the core's L2 skip prefetching, which
  // there only adds work.
  if (config.policy == PrefetchPolicy::kAmac &&
      view.spec.family == TableFamily::kCuckoo &&
      (kernel.approach == Approach::kScalar ||
       kernel.approach == Approach::kHorizontal)) {
    if (view.total_bytes() <= CoreL2Bytes()) return kernel.Lookup(view, typed);
    typed.prefetch_distance = kPrefetchDistance;
    const std::uint64_t hits = kernel.Lookup(view, typed);
    if (typed.stats != nullptr) {
      typed.stats->prefetch_groups +=
          (typed.size + kPrefetchDistance - 1) / kPrefetchDistance;
    }
    return hits;
  }

  const std::size_t group = config.group_size;
  const std::size_t depth =
      config.policy == PrefetchPolicy::kAmac ? config.amac_groups : 1;
  switch (view.spec.key_bits) {
    case 16:
      return RunPipeline<std::uint16_t>(kernel, view, typed, group, depth);
    case 32:
      return RunPipeline<std::uint32_t>(kernel, view, typed, group, depth);
    case 64:
      return RunPipeline<std::uint64_t>(kernel, view, typed, group, depth);
    default:
      return kernel.Lookup(view, typed);
  }
}

}  // namespace simdht
