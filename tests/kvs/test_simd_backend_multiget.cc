// SimdBackend::MultiGet against per-key Get, the oracle it must agree with
// key for key: batch sizes straddling the deref pipeline's prefetch
// distance D and 2D, all-miss and all-hit batches, a forced 32-bit
// hash-key collision, one and four index shards, and the per-shard
// hit/miss/stash counters against the per-hit accounting MultiGet used
// before stash attribution left its hit loop.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "colliding_keys.h"
#include "common/cpu_features.h"
#include "kvs/simd_backend.h"
#include "simd/pipeline.h"

namespace simdht {
namespace {

constexpr std::size_t kD = kPrefetchDistance;

std::vector<SimdBackend::Config> ConfigsWithShards() {
  std::vector<SimdBackend::Config> base = {SimdBackend::ScalarBucketCuckoo()};
  const auto& cpu = GetCpuFeatures();
  if (cpu.Supports(SimdLevel::kAvx2)) {
    base.push_back(SimdBackend::BucketCuckooHorAvx2());
  }
  if (cpu.Supports(SimdLevel::kAvx512)) {
    base.push_back(SimdBackend::CuckooVerAvx512());
  }
  std::vector<SimdBackend::Config> out;
  for (SimdBackend::Config config : base) {
    for (const unsigned shards : {1u, 4u}) {
      config.shards = shards;
      out.push_back(config);
    }
  }
  return out;
}

std::string Label(const SimdBackend::Config& config) {
  return config.display_name + " x" + std::to_string(config.shards);
}

// The per-hit accounting: every key counts against the shard its hash key
// routes to, and a hit whose hash key sits in that shard's stash is a
// stash hit.
std::vector<ShardProbeCounters> PerHitAccounting(
    const SimdBackend& backend, const std::vector<std::string_view>& keys,
    const std::vector<std::uint8_t>& found) {
  const ShardedTable32& index = backend.index();
  const unsigned shards = index.num_shards();
  std::vector<ShardProbeCounters> out(shards);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t hk = HashKey32Of(keys[i]);
    const std::uint32_t s = ShardedTable32::ShardOf(hk, shards);
    if (found[i] == 0) {
      ++out[s].misses;
      continue;
    }
    ++out[s].hits;
    const TableStore& store = index.shard(s).table().store();
    for (unsigned e = 0; e < store.stash_count(); ++e) {
      if (store.stash_at(e).key == hk) {
        ++out[s].stash_hits;
        break;
      }
    }
  }
  return out;
}

// Runs one MultiGet and checks it against Get key by key, and the shard
// counters it moved against the per-hit accounting.
void CheckMultiGet(SimdBackend* backend,
                   const std::vector<std::string>& key_storage,
                   const std::string& label) {
  const std::vector<std::string_view> keys(key_storage.begin(),
                                           key_storage.end());
  const std::vector<ShardProbeCounters> before = backend->ShardProbeStats();
  std::vector<std::string_view> vals(3, "stale");
  std::vector<std::uint8_t> found(3, 7);
  std::vector<std::uint64_t> handles(3, 9);
  const std::size_t hits = backend->MultiGet(keys, &vals, &found, &handles);
  const std::vector<ShardProbeCounters> after = backend->ShardProbeStats();

  ASSERT_EQ(vals.size(), keys.size()) << label;
  ASSERT_EQ(found.size(), keys.size()) << label;
  ASSERT_EQ(handles.size(), keys.size()) << label;
  std::size_t want_hits = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::string want;
    const bool present = backend->Get(keys[i], &want);
    want_hits += present ? 1 : 0;
    ASSERT_EQ(found[i], present ? 1 : 0) << label << " key " << keys[i];
    EXPECT_EQ(handles[i] != 0, present) << label << " key " << keys[i];
    EXPECT_EQ(vals[i], present ? std::string_view(want) : std::string_view())
        << label << " key " << keys[i];
  }
  EXPECT_EQ(hits, want_hits) << label;

  const std::vector<ShardProbeCounters> want =
      PerHitAccounting(*backend, keys, found);
  ASSERT_EQ(after.size(), want.size()) << label;
  for (std::size_t s = 0; s < want.size(); ++s) {
    EXPECT_EQ(after[s].hits - before[s].hits, want[s].hits)
        << label << " shard " << s;
    EXPECT_EQ(after[s].misses - before[s].misses, want[s].misses)
        << label << " shard " << s;
    EXPECT_EQ(after[s].stash_hits - before[s].stash_hits, want[s].stash_hits)
        << label << " shard " << s;
  }
}

std::string KeyOf(std::size_t id) { return "mget-key:" + std::to_string(id); }

// Stores ids [0, n) with values naming their key; returns the count stored.
std::size_t Load(SimdBackend* backend, std::size_t n) {
  std::vector<std::string> keys, vals;
  for (std::size_t id = 0; id < n; ++id) {
    keys.push_back(KeyOf(id));
    vals.push_back("value-of-" + std::to_string(id));
  }
  const std::vector<std::string_view> kv(keys.begin(), keys.end());
  const std::vector<std::string_view> vv(vals.begin(), vals.end());
  std::vector<std::uint8_t> ok;
  return backend->MultiSet(kv, vv, &ok);
}

TEST(SimdBackendMultiGet, MatchesGetAcrossPipelineBatchSizes) {
  constexpr std::size_t kItems = 40000;
  const std::size_t sizes[] = {0,      1,      kD - 1,     kD,   kD + 1,
                               2 * kD - 1, 2 * kD, 2 * kD + 1, 96, 1000};
  for (const SimdBackend::Config& config : ConfigsWithShards()) {
    const std::string label = Label(config);
    // A sparse 4 MiB index: past the L2 prefetch gate when unsharded.
    SimdBackend backend(config, 1 << 19, 64 << 20);
    ASSERT_GT(Load(&backend, kItems), kItems * 99 / 100) << label;
    std::size_t next = 0;
    for (const std::size_t n : sizes) {
      // Mixed batch: about 3 in 4 keys present.
      std::vector<std::string> keys;
      for (std::size_t i = 0; i < n; ++i, ++next) {
        keys.push_back(KeyOf(next % 4 == 3 ? kItems + next
                                           : (next * 7919) % kItems));
      }
      CheckMultiGet(&backend, keys, label + " n=" + std::to_string(n));
    }
    std::vector<std::string> all_miss, all_hit;
    for (std::size_t i = 0; i < 2 * kD + 3; ++i) {
      all_miss.push_back(KeyOf(kItems + 1000000 + i));
      all_hit.push_back(KeyOf(i * 13));
    }
    CheckMultiGet(&backend, all_miss, label + " all-miss");
    CheckMultiGet(&backend, all_hit, label + " all-hit");
  }
}

TEST(SimdBackendMultiGet, StashHitsMatchPerHitAccounting) {
  for (const SimdBackend::Config& config : ConfigsWithShards()) {
    const std::string label = Label(config);
    // A tiny index filled past its buckets, so keys spill to the stash.
    SimdBackend backend(config, 64, 8 << 20);
    std::vector<std::string> keys;
    for (std::size_t id = 0; id < 400; ++id) {
      if (backend.Set(KeyOf(id), "v" + std::to_string(id))) {
        keys.push_back(KeyOf(id));
      }
    }
    unsigned stashed = 0;
    for (unsigned s = 0; s < backend.index().num_shards(); ++s) {
      stashed += backend.index().shard(s).table().store().stash_count();
    }
    ASSERT_GT(stashed, 0u) << label;
    keys.push_back(KeyOf(100000));  // plus one miss
    CheckMultiGet(&backend, keys, label);
  }
}

TEST(SimdBackendMultiGet, HashKeyFalsePositiveReadsAbsent) {
  std::string a, b;
  if (!FindCollidingPair(&a, &b)) {
    GTEST_SKIP() << "no 32-bit collision found in the search budget";
  }
  for (const SimdBackend::Config& config : ConfigsWithShards()) {
    const std::string label = Label(config);
    SimdBackend backend(config, 1 << 12, 8 << 20);
    ASSERT_TRUE(backend.Set(a, "resident"));
    // b's hash key finds a's index entry; full-key verification must turn
    // the index hit into a miss.
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < 2 * kD + 1; ++i) {
      keys.push_back(i % 2 == 0 ? b : a);
    }
    CheckMultiGet(&backend, keys, label);
  }
}

TEST(SimdBackendMultiGet, ConcurrentReadersMatchGet) {
  // MultiGet's scratch is per thread: two threads issuing overlapping
  // batches must each get exactly the single-threaded answers.
  constexpr std::size_t kItems = 5000;
  for (const SimdBackend::Config& config : ConfigsWithShards()) {
    const std::string label = Label(config);
    SimdBackend backend(config, 1 << 14, 16 << 20);
    ASSERT_GT(Load(&backend, kItems), kItems * 99 / 100) << label;

    std::vector<std::string> key_storage[2];
    std::vector<std::string> want_vals[2];
    std::vector<std::uint8_t> want_found[2];
    for (int t = 0; t < 2; ++t) {
      const std::size_t n = 96 + 13 * static_cast<std::size_t>(t);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t id = (i * 31 + 7 * t) % (kItems + kItems / 4);
        key_storage[t].push_back(KeyOf(id));
        std::string val;
        want_found[t].push_back(backend.Get(KeyOf(id), &val) ? 1 : 0);
        want_vals[t].push_back(val);
      }
    }
    int mismatches[2] = {0, 0};
    auto reader = [&](int t) {
      const std::vector<std::string_view> keys(key_storage[t].begin(),
                                               key_storage[t].end());
      std::vector<std::string_view> vals;
      std::vector<std::uint8_t> found;
      std::vector<std::uint64_t> handles;
      for (int round = 0; round < 200; ++round) {
        backend.MultiGet(keys, &vals, &found, &handles);
        for (std::size_t i = 0; i < keys.size(); ++i) {
          if (found[i] != want_found[t][i] ||
              (found[i] && vals[i] != want_vals[t][i])) {
            ++mismatches[t];
          }
        }
      }
    };
    std::thread first(reader, 0);
    std::thread second(reader, 1);
    first.join();
    second.join();
    EXPECT_EQ(mismatches[0], 0) << label;
    EXPECT_EQ(mismatches[1], 0) << label;
  }
}

}  // namespace
}  // namespace simdht
