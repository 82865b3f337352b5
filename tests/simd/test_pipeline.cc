// Pipeline-vs-direct equivalence, plus unit coverage for the redesigned
// probe-batch API (ProbeBatch / ProbeBatchStats / KernelQuery /
// PipelineConfig).
//
// The prefetch pipeline only changes *when* candidate buckets are fetched,
// never what is compared — so for every registered kernel, on every table
// shape it supports, the group and AMAC paths must produce bit-identical
// vals/found (and the same hit count) as the direct path. Edge cases: n=0,
// n smaller than the group size, and 0%-hit-rate batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "core/workload.h"
#include "ht/cuckoo_table.h"
#include "ht/table_builder.h"
#include "simd/kernel.h"
#include "simd/pipeline.h"

namespace simdht {
namespace {

// Pipeline schedules under test: group sizes straddling the batch size,
// a degenerate group of 1, and AMAC windows both shallow and deep.
const PipelineConfig kConfigs[] = {
    {PrefetchPolicy::kGroup, 1, 1},  {PrefetchPolicy::kGroup, 5, 1},
    {PrefetchPolicy::kGroup, 32, 1}, {PrefetchPolicy::kGroup, 4096, 1},
    {PrefetchPolicy::kAmac, 7, 3},   {PrefetchPolicy::kAmac, 32, 4},
};

struct ShapeCase {
  unsigned ways;
  unsigned slots;
  std::uint64_t buckets;
};

const ShapeCase kShapes[] = {
    {2, 1, 1 << 10},
    {3, 1, 1 << 10},
    {2, 4, 1 << 8},
    {2, 8, 1 << 6},
};

template <typename K, typename V>
void VerifyPipelineOnShape(const KernelInfo& kernel, const ShapeCase& shape,
                           BucketLayout layout, double hit_rate) {
  LayoutSpec spec;
  spec.ways = shape.ways;
  spec.slots = shape.slots;
  spec.key_bits = sizeof(K) * 8;
  spec.val_bits = sizeof(V) * 8;
  spec.bucket_layout = layout;
  if (!kernel.Matches(spec)) return;
  std::string why;
  ASSERT_TRUE(spec.Validate(&why)) << why;

  CuckooTable<K, V> table(shape.ways, shape.slots, shape.buckets, layout,
                          /*seed=*/shape.ways * 100 + shape.slots);
  auto build = FillToLoadFactor(&table, 0.85, /*seed=*/7);
  ASSERT_GT(build.inserted_keys.size(), 0u);
  auto miss_pool = UniqueRandomKeys<K>(1024, 55, &build.inserted_keys);

  WorkloadConfig wc;
  wc.pattern = AccessPattern::kUniform;
  wc.hit_rate = hit_rate;
  wc.num_queries = 4099;  // odd on purpose: exercises partial tail groups
  wc.seed = 13;
  auto queries = GenerateQueries(build.inserted_keys, miss_pool, wc);
  ASSERT_EQ(queries.size(), wc.num_queries);
  const TableView view = table.view();

  // Direct reference run.
  std::vector<V> direct_vals(queries.size(), V{0xAA});
  std::vector<std::uint8_t> direct_found(queries.size(), 0xAA);
  const std::uint64_t direct_hits = kernel.Lookup(
      view, ProbeBatch::Of(queries.data(), direct_vals.data(),
                           direct_found.data(), queries.size()));

  for (const PipelineConfig& config : kConfigs) {
    const std::string label =
        kernel.name + " [" + config.Describe() + "] hit_rate=" +
        std::to_string(hit_rate);
    // Poisoned output buffers: every byte must be (re)written identically.
    std::vector<V> vals(queries.size(), V{0x55});
    std::vector<std::uint8_t> found(queries.size(), 0x55);
    const std::uint64_t hits = PipelinedLookup(
        kernel, view,
        ProbeBatch::Of(queries.data(), vals.data(), found.data(),
                       queries.size()),
        config);
    EXPECT_EQ(hits, direct_hits) << label;
    ASSERT_EQ(std::memcmp(vals.data(), direct_vals.data(),
                          vals.size() * sizeof(V)),
              0)
        << label;
    ASSERT_EQ(std::memcmp(found.data(), direct_found.data(), found.size()),
              0)
        << label;

    // n = 0 and n < group_size must work (a sub-group batch becomes one
    // primed group; n = 0 short-circuits).
    EXPECT_EQ(PipelinedLookup(kernel, view,
                              ProbeBatch::Of<K, V>(queries.data(), nullptr,
                                                   nullptr, 0),
                              config),
              0u)
        << label;
    const std::size_t small = std::min<std::size_t>(3, queries.size());
    std::vector<V> small_vals(small);
    std::vector<std::uint8_t> small_found(small);
    const std::uint64_t small_hits = PipelinedLookup(
        kernel, view,
        ProbeBatch::Of(queries.data(), small_vals.data(), small_found.data(),
                       small),
        config);
    std::uint64_t small_direct = 0;
    for (std::size_t i = 0; i < small; ++i) small_direct += direct_found[i];
    EXPECT_EQ(small_hits, small_direct) << label;
  }
}

template <typename K, typename V>
void VerifyAllShapes(const KernelInfo& kernel, BucketLayout layout) {
  for (const ShapeCase& shape : kShapes) {
    // 0.7 = mixed batch; 0.0 = the all-miss batch the issue calls out.
    VerifyPipelineOnShape<K, V>(kernel, shape, layout, 0.7);
    VerifyPipelineOnShape<K, V>(kernel, shape, layout, 0.0);
  }
}

TEST(PrefetchPipeline, MatchesDirectPathForEveryKernel) {
  const CpuFeatures& cpu = GetCpuFeatures();
  for (const KernelInfo& kernel : KernelRegistry::Get().all()) {
    if (!cpu.Supports(kernel.level)) continue;
    if (kernel.key_bits == 16 && kernel.val_bits == 32) {
      VerifyAllShapes<std::uint16_t, std::uint32_t>(kernel,
                                                    kernel.bucket_layout);
    } else if (kernel.key_bits == 32 && kernel.val_bits == 32) {
      VerifyAllShapes<std::uint32_t, std::uint32_t>(kernel,
                                                    kernel.bucket_layout);
    } else if (kernel.key_bits == 64 && kernel.val_bits == 64) {
      VerifyAllShapes<std::uint64_t, std::uint64_t>(kernel,
                                                    kernel.bucket_layout);
    } else {
      ADD_FAILURE() << "untested (key, val) widths for " << kernel.name;
    }
  }
}

// --- fused AMAC schedule ---------------------------------------------------
//
// Under kAmac the scalar and horizontal cuckoo kernels take the fused
// per-key interleave (ProbeBatch::prefetch_distance), but only on tables
// larger than the core's L2 — the shapes above are all smaller and go down
// the direct path. These cases build tables past the gate, with a populated
// overflow stash, and hold the fused path bit-identical to kernel.Lookup at
// batch sizes around the prefetch distance.

const std::size_t kFusedBatchSizes[] = {
    0, 1, kPrefetchDistance - 1, kPrefetchDistance, kPrefetchDistance + 1,
    96, 4096};

bool TakesFusedAmac(const KernelInfo& kernel) {
  return kernel.family == TableFamily::kCuckoo &&
         (kernel.approach == Approach::kScalar ||
          kernel.approach == Approach::kHorizontal);
}

// The (2, m) shape and power-of-two bucket count of the smallest table past
// the L2 gate: m = 4 where the key width can address enough buckets (a
// table needs log2(buckets) < key bits), else m = 8. Returns false when
// even that cannot pass the gate (16-bit keys on an L2 of 1.5 MiB or
// more); the shape is then the largest such table.
bool FusedCaseShape(unsigned key_bits, unsigned val_bits, BucketLayout layout,
                    LayoutSpec* spec, std::uint64_t* buckets) {
  spec->ways = 2;
  spec->key_bits = key_bits;
  spec->val_bits = val_bits;
  spec->bucket_layout = layout;
  for (const unsigned slots : {4u, 8u}) {
    spec->slots = slots;
    unsigned log2 = 1;
    while ((std::uint64_t{1} << log2) * spec->bucket_bytes() <=
           CoreL2Bytes()) {
      ++log2;
    }
    if (log2 < key_bits) {
      *buckets = std::uint64_t{1} << log2;
      return true;
    }
  }
  *buckets = std::uint64_t{1} << (key_bits - 1);
  return false;
}

template <typename K, typename V>
void VerifyFusedAmacOnLargeTable(BucketLayout layout) {
  LayoutSpec spec;
  std::uint64_t buckets = 0;
  const bool past_gate = FusedCaseShape(sizeof(K) * 8, sizeof(V) * 8, layout,
                                        &spec, &buckets);
  const CpuFeatures& cpu = GetCpuFeatures();
  std::vector<const KernelInfo*> kernels;
  for (const KernelInfo& kernel : KernelRegistry::Get().all()) {
    if (TakesFusedAmac(kernel) && cpu.Supports(kernel.level) &&
        kernel.Matches(spec)) {
      kernels.push_back(&kernel);
    }
  }
  if (kernels.empty()) return;

  CuckooTable<K, V> table(spec.ways, spec.slots, buckets, layout,
                          /*seed=*/41);
  // 16-bit keys cannot fill a large table; a sparse one still probes.
  const double lf =
      sizeof(K) == 2
          ? std::min(0.85, 30000.0 / static_cast<double>(table.capacity()))
          : 0.85;
  auto build = FillToLoadFactor(&table, lf, /*seed=*/43);
  ASSERT_GT(build.inserted_keys.size(), 0u);
  auto misses = UniqueRandomKeys<K>(2048, 47, &build.inserted_keys);
  ASSERT_GE(misses.size(), 8u);

  // Populated stash: fresh keys (absent from every bucket) appended
  // straight to the overflow stash, so only the stash post-pass finds them.
  std::vector<K> stashed(misses.end() - 4, misses.end());
  misses.resize(misses.size() - 4);
  table.set_stash_capacity(static_cast<unsigned>(stashed.size()));
  for (const K key : stashed) {
    ASSERT_TRUE(table.store().StashAppend(key, DeriveVal<K, V>(key)));
  }
  const TableView view = table.view();
  ASSERT_EQ(view.total_bytes() > CoreL2Bytes(), past_gate);
  ASSERT_EQ(view.stash_count, stashed.size());

  WorkloadConfig wc;
  wc.pattern = AccessPattern::kUniform;
  wc.hit_rate = 0.7;
  wc.num_queries = 4096;
  wc.seed = 53;
  auto queries = GenerateQueries(build.inserted_keys, misses, wc);
  ASSERT_EQ(queries.size(), wc.num_queries);
  for (std::size_t i = 0; i < queries.size(); i += 7) {
    queries[i] = stashed[(i / 7) % stashed.size()];
  }

  const PipelineConfig amac{PrefetchPolicy::kAmac, 32, 4};
  for (const KernelInfo* kernel : kernels) {
    for (const std::size_t n : kFusedBatchSizes) {
      const std::string label = kernel->name + " n=" + std::to_string(n);
      std::vector<V> want_vals(n, V{0x11});
      std::vector<std::uint8_t> want_found(n, 0x11);
      const std::uint64_t want = kernel->Lookup(
          view, ProbeBatch::Of(queries.data(), want_vals.data(),
                               want_found.data(), n));

      // The kernel's own interleave, whatever the table size.
      std::vector<V> vals(n, V{0x55});
      std::vector<std::uint8_t> found(n, 0x55);
      ProbeBatch fused =
          ProbeBatch::Of(queries.data(), vals.data(), found.data(), n);
      fused.prefetch_distance = kPrefetchDistance;
      EXPECT_EQ(kernel->Lookup(view, fused), want) << label;
      EXPECT_EQ(vals, want_vals) << label;
      EXPECT_EQ(found, want_found) << label;
      if (!past_gate) continue;

      // The engine's dispatch onto it.
      std::fill(vals.begin(), vals.end(), V{0x55});
      std::fill(found.begin(), found.end(), 0x55);
      ProbeBatchStats stats;
      const std::uint64_t hits = PipelinedLookup(
          *kernel, view,
          ProbeBatch::Of(queries.data(), vals.data(), found.data(), n,
                         &stats),
          amac);
      EXPECT_EQ(hits, want) << label;
      EXPECT_EQ(vals, want_vals) << label;
      EXPECT_EQ(found, want_found) << label;
      EXPECT_EQ(stats.lookups, n) << label;
      EXPECT_EQ(stats.hits, hits) << label;
      EXPECT_EQ(stats.kernel_calls, 1u) << label;
      EXPECT_EQ(stats.prefetch_groups,
                (n + kPrefetchDistance - 1) / kPrefetchDistance)
          << label;
    }
    // The stash keys themselves resolve through the fused path.
    std::vector<V> vals(stashed.size());
    std::vector<std::uint8_t> found(stashed.size());
    ProbeBatch batch = ProbeBatch::Of(stashed.data(), vals.data(),
                                      found.data(), stashed.size());
    batch.prefetch_distance = kPrefetchDistance;
    EXPECT_EQ(kernel->Lookup(view, batch), stashed.size()) << kernel->name;
    for (std::size_t i = 0; i < stashed.size(); ++i) {
      EXPECT_EQ(vals[i], (DeriveVal<K, V>(stashed[i]))) << kernel->name;
    }
  }
}

TEST(PrefetchPipeline, FusedAmacMatchesKernelAboveTheL2Gate) {
  for (const BucketLayout layout :
       {BucketLayout::kInterleaved, BucketLayout::kSplit}) {
    VerifyFusedAmacOnLargeTable<std::uint32_t, std::uint32_t>(layout);
    VerifyFusedAmacOnLargeTable<std::uint64_t, std::uint64_t>(layout);
    VerifyFusedAmacOnLargeTable<std::uint16_t, std::uint32_t>(layout);
  }
}

TEST(PrefetchPipeline, FusedAmacCoversEveryScalarAndHorizontalKernel) {
  // Every kernel the fused path serves must be reachable by the case above
  // on the shape it builds.
  for (const KernelInfo& kernel : KernelRegistry::Get().all()) {
    if (!TakesFusedAmac(kernel)) continue;
    LayoutSpec spec;
    std::uint64_t buckets = 0;
    FusedCaseShape(kernel.key_bits, kernel.val_bits, kernel.bucket_layout,
                   &spec, &buckets);
    EXPECT_TRUE(kernel.Matches(spec)) << kernel.name;
  }
}

TEST(PrefetchPipeline, L2ResidentTablesTakeTheDirectPath) {
  CuckooTable32 table(2, 4, 1 << 8, BucketLayout::kInterleaved, 1);
  auto build = FillToLoadFactor(&table, 0.8, 2);
  ASSERT_LE(table.view().total_bytes(), CoreL2Bytes());
  const std::size_t n = 100;
  std::vector<std::uint32_t> keys(build.inserted_keys.begin(),
                                  build.inserted_keys.begin() + n);
  std::vector<std::uint32_t> vals(n);
  std::vector<std::uint8_t> found(n);
  for (const KernelInfo& kernel : KernelRegistry::Get().all()) {
    if (!TakesFusedAmac(kernel) ||
        !GetCpuFeatures().Supports(kernel.level) ||
        !kernel.Matches(table.spec())) {
      continue;
    }
    ProbeBatchStats stats;
    EXPECT_EQ(PipelinedLookup(kernel, table.view(),
                              ProbeBatch::Of(keys.data(), vals.data(),
                                             found.data(), n, &stats),
                              PipelineConfig{PrefetchPolicy::kAmac, 32, 4}),
              n)
        << kernel.name;
    EXPECT_EQ(stats.kernel_calls, 1u) << kernel.name;
    EXPECT_EQ(stats.prefetch_groups, 0u) << kernel.name;
  }
}

TEST(PrefetchPipeline, StatsAccumulateAcrossGroups) {
  CuckooTable32 table(2, 4, 1 << 8, BucketLayout::kInterleaved, 1);
  auto build = FillToLoadFactor(&table, 0.8, 2);
  const KernelInfo* scalar = KernelRegistry::Get().Scalar(table.spec());
  ASSERT_NE(scalar, nullptr);

  const std::size_t n = 100;
  std::vector<std::uint32_t> keys(build.inserted_keys.begin(),
                                  build.inserted_keys.begin() + n);
  std::vector<std::uint32_t> vals(n);
  std::vector<std::uint8_t> found(n);

  PipelineConfig config{PrefetchPolicy::kGroup, 32, 1};
  ProbeBatchStats stats;
  const std::uint64_t hits = PipelinedLookup(
      *scalar, table.view(),
      ProbeBatch::Of(keys.data(), vals.data(), found.data(), n, &stats),
      config);
  EXPECT_EQ(hits, n);  // all keys resident
  EXPECT_EQ(stats.lookups, n);
  EXPECT_EQ(stats.hits, n);
  EXPECT_EQ(stats.kernel_calls, (n + 31) / 32);  // ceil(100/32) = 4 slices
  EXPECT_EQ(stats.prefetch_groups, (n + 31) / 32);

  // Counters accumulate: a second run doubles everything.
  PipelinedLookup(
      *scalar, table.view(),
      ProbeBatch::Of(keys.data(), vals.data(), found.data(), n, &stats),
      config);
  EXPECT_EQ(stats.lookups, 2 * n);
  EXPECT_EQ(stats.hits, 2 * n);
}

TEST(ProbeBatch, SliceOffsetsTypedSpans) {
  std::vector<std::uint64_t> keys(10), vals(10);
  std::vector<std::uint8_t> found(10);
  const ProbeBatch batch =
      ProbeBatch::Of(keys.data(), vals.data(), found.data(), keys.size());
  EXPECT_EQ(batch.key_bits, 64u);
  EXPECT_EQ(batch.val_bits, 64u);

  const ProbeBatch sub = batch.Slice(4, 3);
  EXPECT_EQ(sub.size, 3u);
  EXPECT_EQ(sub.keys_as<std::uint64_t>(), keys.data() + 4);
  EXPECT_EQ(sub.vals_as<std::uint64_t>(), vals.data() + 4);
  EXPECT_EQ(sub.found, found.data() + 4);

  // Null outputs (count-only probes) stay null through slicing.
  const ProbeBatch count_only =
      ProbeBatch::Of<std::uint64_t, std::uint64_t>(keys.data(), nullptr,
                                                   nullptr, keys.size());
  const ProbeBatch count_sub = count_only.Slice(2, 2);
  EXPECT_EQ(count_sub.vals, nullptr);
  EXPECT_EQ(count_sub.found, nullptr);
}

TEST(PipelineConfig, ParseAndDescribeRoundTrip) {
  PrefetchPolicy policy = PrefetchPolicy::kAmac;
  EXPECT_TRUE(ParsePrefetchPolicy("none", &policy));
  EXPECT_EQ(policy, PrefetchPolicy::kNone);
  EXPECT_TRUE(ParsePrefetchPolicy("group", &policy));
  EXPECT_EQ(policy, PrefetchPolicy::kGroup);
  EXPECT_TRUE(ParsePrefetchPolicy("amac", &policy));
  EXPECT_EQ(policy, PrefetchPolicy::kAmac);
  EXPECT_FALSE(ParsePrefetchPolicy("bogus", &policy));

  EXPECT_STREQ(PrefetchPolicyName(PrefetchPolicy::kGroup), "group");
  EXPECT_EQ((PipelineConfig{PrefetchPolicy::kNone, 32, 4}).Describe(),
            "direct");
  EXPECT_EQ((PipelineConfig{PrefetchPolicy::kGroup, 64, 4}).Describe(),
            "group:64");
  EXPECT_EQ((PipelineConfig{PrefetchPolicy::kAmac, 16, 8}).Describe(),
            "amac:8x16");

  std::string why;
  EXPECT_TRUE((PipelineConfig{PrefetchPolicy::kGroup, 32, 4}).Validate(&why));
  EXPECT_FALSE((PipelineConfig{PrefetchPolicy::kGroup, 0, 4}).Validate(&why));
  EXPECT_FALSE((PipelineConfig{PrefetchPolicy::kAmac, 32, 0}).Validate(&why));
}

}  // namespace
}  // namespace simdht
