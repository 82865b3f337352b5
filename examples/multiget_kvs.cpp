// Distributed Multi-Get over a sharded key-value store (Section VI).
//
// Two server shards (each a KvServer over a SIMD-aware backend) behind a
// consistent-hash ring; the client batches one application-level
// MGet(K1..Kn) into per-shard Multi-Gets (the paper's request phase),
// issues them over the modeled EDR wire, and reassembles the responses.
//
//   $ ./multiget_kvs [--keys=20000] [--mget=24] [--requests=200]
#include <cstdio>
#include <memory>
#include <vector>

#include "common/cpu_features.h"
#include "common/flags.h"
#include "common/stats.h"
#include "common/timer.h"
#include "kvs/client.h"
#include "kvs/consistent_hash.h"
#include "kvs/loadgen.h"
#include "kvs/memc3_backend.h"
#include "kvs/server.h"
#include "kvs/simd_backend.h"

using namespace simdht;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto num_keys = static_cast<std::size_t>(flags.GetInt("keys", 20000));
  const auto mget_size = static_cast<std::size_t>(flags.GetInt("mget", 24));
  const auto requests =
      static_cast<std::size_t>(flags.GetInt("requests", 200));

  // Pick the best backend the CPU supports for shard 0; shard 1 runs the
  // MemC3 baseline so the output contrasts both in one run.
  std::unique_ptr<KvBackend> shard0;
  if (GetCpuFeatures().Supports(SimdLevel::kAvx512)) {
    shard0 = std::make_unique<SimdBackend>(SimdBackend::CuckooVerAvx512(),
                                           num_keys * 2, 256 << 20);
  } else if (GetCpuFeatures().Supports(SimdLevel::kAvx2)) {
    shard0 = std::make_unique<SimdBackend>(
        SimdBackend::BucketCuckooHorAvx2(), num_keys * 2, 256 << 20);
  } else {
    shard0 = std::make_unique<SimdBackend>(
        SimdBackend::ScalarBucketCuckoo(), num_keys * 2, 256 << 20);
  }
  auto shard1 = std::make_unique<Memc3Backend>(num_keys * 2, 256 << 20);
  KvBackend* shards[2] = {shard0.get(), shard1.get()};
  std::printf("shard 0 backend: %s\nshard 1 backend: %s\n\n",
              shards[0]->name(), shards[1]->name());

  // One channel + server per shard, over the modeled InfiniBand EDR wire.
  Channel ch0{WireModel::InfinibandEdr()};
  Channel ch1{WireModel::InfinibandEdr()};
  KvServer server0(shards[0], {&ch0});
  KvServer server1(shards[1], {&ch1});
  server0.Start();
  server1.Start();
  KvClient clients[2] = {KvClient(&ch0), KvClient(&ch1)};

  // Consistent-hash ring maps each key to its shard (request phase step 1).
  ConsistentHashRing ring;
  ring.AddServer(0);
  ring.AddServer(1);

  // Preload.
  std::vector<std::string> keys;
  keys.reserve(num_keys);
  for (std::size_t i = 0; i < num_keys; ++i) {
    keys.push_back(MakeKeyString(i, 20));
  }
  const std::string value(32, 'v');
  std::size_t per_shard[2] = {0, 0};
  for (const std::string& key : keys) {
    const std::uint32_t shard = ring.ServerFor(key);
    clients[shard].Set(key, value);
    ++per_shard[shard];
  }
  std::printf("preloaded %zu keys (%zu on shard 0, %zu on shard 1)\n\n",
              keys.size(), per_shard[0], per_shard[1]);

  // Application-level Multi-Gets: partition per shard, issue, reassemble.
  Xoshiro256 rng(3);
  LatencyRecorder latency;
  std::size_t total_found = 0;
  for (std::size_t r = 0; r < requests; ++r) {
    std::vector<std::string_view> batch;
    for (std::size_t k = 0; k < mget_size; ++k) {
      batch.push_back(keys[rng.NextBounded(keys.size())]);
    }
    Timer timer;
    auto parts = ring.PartitionKeys(batch);
    std::vector<std::string> merged(batch.size());
    std::vector<std::uint8_t> merged_found(batch.size(), 0);
    for (const auto& [shard, indices] : parts) {
      std::vector<std::string_view> shard_keys;
      for (std::size_t idx : indices) shard_keys.push_back(batch[idx]);
      std::vector<std::string> vals;
      std::vector<std::uint8_t> found;
      clients[shard].MultiGet(shard_keys, &vals, &found);
      for (std::size_t j = 0; j < indices.size(); ++j) {
        merged[indices[j]] = vals[j];
        merged_found[indices[j]] = found[j];
      }
    }
    latency.Add(timer.ElapsedNanos());
    for (std::uint8_t f : merged_found) total_found += f;
  }

  std::printf("issued %zu MGet(%zu) requests across 2 shards\n", requests,
              mget_size);
  std::printf("  found %zu / %zu keys\n", total_found,
              requests * mget_size);
  std::printf("  end-to-end latency: mean %.1f us, p50 %.1f us, p99 %.1f us\n",
              latency.mean() / 1e3, latency.Percentile(50) / 1e3,
              latency.Percentile(99) / 1e3);

  for (KvClient& client : clients) client.Shutdown();
  server0.Join();
  server1.Join();

  const auto lookup_us = [](const KvServer& server) {
    return server.Metrics().histograms.at(kvs_metrics::kIndexProbeNs).mean() /
           1e3;
  };
  std::printf("\nserver-side lookup phase per batch: shard0 (%s) %.2f us, "
              "shard1 (%s) %.2f us\n",
              shards[0]->name(), lookup_us(server0), shards[1]->name(),
              lookup_us(server1));
  return 0;
}
