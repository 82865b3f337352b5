#include "kvs/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/random.h"
#include "common/timer.h"
#include "core/zipf.h"
#include "kvs/client.h"

namespace simdht {

const char* ArrivalModeName(ArrivalMode mode) {
  switch (mode) {
    case ArrivalMode::kClosedLoop: return "closed";
    case ArrivalMode::kUniform: return "uniform";
    case ArrivalMode::kPoisson: return "poisson";
  }
  return "?";
}

bool ParseArrivalMode(std::string_view name, ArrivalMode* mode) {
  if (name == "closed" || name == "closed-loop") {
    *mode = ArrivalMode::kClosedLoop;
  } else if (name == "uniform" || name == "open" || name == "open-uniform") {
    *mode = ArrivalMode::kUniform;
  } else if (name == "poisson" || name == "open-poisson") {
    *mode = ArrivalMode::kPoisson;
  } else {
    return false;
  }
  return true;
}

std::vector<std::uint64_t> BuildArrivalSchedule(ArrivalMode mode, double qps,
                                                std::size_t count,
                                                std::uint64_t seed) {
  std::vector<std::uint64_t> offsets;
  if (mode == ArrivalMode::kClosedLoop || count == 0 || qps <= 0) {
    return offsets;
  }
  offsets.reserve(count);
  const double gap_ns = 1e9 / qps;
  if (mode == ArrivalMode::kUniform) {
    for (std::size_t i = 0; i < count; ++i) {
      offsets.push_back(
          static_cast<std::uint64_t>(gap_ns * static_cast<double>(i)));
    }
    return offsets;
  }
  // Poisson process: i.i.d. exponential inter-arrival gaps, inverse-CDF
  // sampled so the schedule is a pure function of the seed.
  Xoshiro256 rng(seed);
  double t_ns = 0;
  for (std::size_t i = 0; i < count; ++i) {
    offsets.push_back(static_cast<std::uint64_t>(t_ns));
    // NextDouble() is in [0, 1); flip to (0, 1] so log() never sees 0.
    const double u = 1.0 - rng.NextDouble();
    t_ns += -std::log(u) * gap_ns;
  }
  return offsets;
}

std::string MakeKeyString(std::size_t index, std::size_t key_size) {
  char head[32];
  const int n = std::snprintf(head, sizeof(head), "key:%010zu", index);
  std::string key(head, static_cast<std::size_t>(n));
  if (key.size() < key_size) key.append(key_size - key.size(), 'x');
  key.resize(key_size);
  return key;
}

MemslapResult RunMemslap(KvBackend* backend, const MemslapConfig& config,
                         MetricsRegistry* metrics) {
  MemslapResult result;
  result.backend_name = backend->name();

  // Key universe: [0, num_keys) preloaded; a disjoint tail provides misses.
  const std::size_t miss_pool = std::max<std::size_t>(
      1024, config.num_keys / 8);
  std::vector<std::string> keys;
  keys.reserve(config.num_keys + miss_pool);
  for (std::size_t i = 0; i < config.num_keys + miss_pool; ++i) {
    keys.push_back(MakeKeyString(i, config.key_size));
  }
  const std::string value(config.val_size, 'v');

  std::vector<std::unique_ptr<Channel>> channels;
  std::vector<Channel*> channel_ptrs;
  for (unsigned c = 0; c < config.clients; ++c) {
    channels.push_back(std::make_unique<Channel>(config.wire));
    channel_ptrs.push_back(channels.back().get());
  }

  KvServer server(backend, channel_ptrs, metrics);
  server.Start();

  // --- Preload phase (through the wire, striped across clients). ---
  // Keys ship in MSET chunks so the server's backend runs its batched
  // write path (block hashing + prefetch + SIMD empty-slot scans) instead
  // of one Set round-trip per key.
  {
    constexpr std::size_t kPreloadChunk = 128;
    std::vector<std::thread> loaders;
    std::atomic<std::size_t> loaded{0};
    for (unsigned c = 0; c < config.clients; ++c) {
      loaders.emplace_back([&, c] {
        KvClient client(channel_ptrs[c]);
        std::vector<std::string_view> chunk_keys;
        std::vector<std::string_view> chunk_vals;
        std::vector<std::uint8_t> chunk_ok;
        chunk_keys.reserve(kPreloadChunk);
        chunk_vals.reserve(kPreloadChunk);
        std::size_t ok = 0;
        const auto flush = [&] {
          if (chunk_keys.empty()) return;
          if (client.MultiSet(chunk_keys, chunk_vals, &chunk_ok)) {
            for (std::uint8_t r : chunk_ok) ok += r ? 1 : 0;
          }
          chunk_keys.clear();
          chunk_vals.clear();
        };
        for (std::size_t i = c; i < config.num_keys; i += config.clients) {
          chunk_keys.push_back(keys[i]);
          chunk_vals.push_back(value);
          if (chunk_keys.size() >= kPreloadChunk) flush();
        }
        flush();
        loaded.fetch_add(ok);
      });
    }
    for (auto& t : loaders) t.join();
    result.preloaded = loaded.load();
  }

  // --- Multi-Get phase. ---
  const bool open_loop = config.arrival != ArrivalMode::kClosedLoop &&
                         config.target_qps > 0;
  result.intended_qps = open_loop ? config.target_qps : 0;

  using SteadyClock = std::chrono::steady_clock;
  // All clients share one schedule epoch so the aggregate rate is honest.
  const SteadyClock::time_point epoch =
      SteadyClock::now() + std::chrono::milliseconds(5);

  std::vector<LatencyRecorder> latencies(config.clients);
  std::vector<double> send_lag_ns(config.clients, 0);
  std::vector<std::uint64_t> client_hits(config.clients, 0);
  std::vector<std::uint64_t> client_keys(config.clients, 0);
  Timer phase_timer;
  {
    std::vector<std::thread> drivers;
    for (unsigned c = 0; c < config.clients; ++c) {
      drivers.emplace_back([&, c] {
        KvClient client(channel_ptrs[c]);
        Xoshiro256 rng(config.seed + 100 + c);
        const ZipfGenerator zipf(config.num_keys, config.zipf_s);
        std::vector<std::string_view> batch(config.mget_size);
        std::vector<std::string> vals;
        std::vector<std::uint8_t> found;
        const std::vector<std::uint64_t> schedule = BuildArrivalSchedule(
            config.arrival, config.target_qps / config.clients,
            open_loop ? config.requests_per_client : 0,
            config.seed + 500 + c);

        for (std::size_t r = 0; r < config.requests_per_client; ++r) {
          for (unsigned k = 0; k < config.mget_size; ++k) {
            const bool hit = rng.NextDouble() < config.hit_rate;
            std::size_t idx;
            if (hit) {
              idx = config.zipf ? zipf.Next(&rng)
                                : rng.NextBounded(config.num_keys);
            } else {
              idx = config.num_keys +
                    rng.NextBounded(keys.size() - config.num_keys);
            }
            batch[k] = keys[idx];
          }
          double latency_ns;
          if (open_loop) {
            const SteadyClock::time_point intended =
                epoch + std::chrono::nanoseconds(schedule[r]);
            std::this_thread::sleep_until(intended);
            const SteadyClock::time_point send = SteadyClock::now();
            const double lag =
                std::chrono::duration<double, std::nano>(send - intended)
                    .count();
            if (lag > send_lag_ns[c]) send_lag_ns[c] = lag;
            client.MultiGet(batch, &vals, &found);
            // Coordinated-omission-safe: charged from the intended send
            // time, so schedule slip counts against the server.
            latency_ns = std::chrono::duration<double, std::nano>(
                             SteadyClock::now() - intended)
                             .count();
          } else {
            Timer t;
            client.MultiGet(batch, &vals, &found);
            latency_ns = t.ElapsedNanos();
          }
          latencies[c].Add(latency_ns);
          client_keys[c] += found.size();
          for (std::uint8_t f : found) client_hits[c] += f;
        }
        client.Shutdown();
      });
    }
    for (auto& t : drivers) t.join();
  }
  const double phase_secs = phase_timer.ElapsedSeconds();
  server.Join();

  LatencyRecorder all;
  for (auto& rec : latencies) all.Merge(rec);
  result.mget_mean_us = all.mean() / 1e3;
  result.mget_p50_us = all.Percentile(50) / 1e3;
  result.mget_p95_us = all.Percentile(95) / 1e3;
  result.mget_p99_us = all.Percentile(99) / 1e3;
  result.mget_p999_us = all.P999() / 1e3;
  result.mget_p9999_us = all.P9999() / 1e3;
  for (double lag : send_lag_ns) {
    result.max_send_lag_us = std::max(result.max_send_lag_us, lag / 1e3);
  }

  const MetricsSnapshot snap = server.Metrics();
  result.mget_batches = snap.counter(kvs_metrics::kBatches);
  result.mget_keys = snap.counter(kvs_metrics::kKeys);
  const auto total_ns = [&snap](const char* phase) {
    const auto it = snap.histograms.find(phase);
    return it == snap.histograms.end() ? 0.0
                                       : static_cast<double>(it->second.sum());
  };
  const double pre_ns = total_ns(kvs_metrics::kParseNs);
  const double lookup_ns = total_ns(kvs_metrics::kIndexProbeNs);
  const double post_ns = total_ns(kvs_metrics::kValueCopyNs);
  if (result.mget_batches > 0) {
    const double batches = static_cast<double>(result.mget_batches);
    result.pre_process_ns = pre_ns / batches;
    result.ht_lookup_ns = lookup_ns / batches;
    result.post_process_ns = post_ns / batches;
  }
  const double processing_secs = (pre_ns + lookup_ns + post_ns) / 1e9;
  result.server_get_mops =
      processing_secs > 0
          ? static_cast<double>(result.mget_keys) / processing_secs / 1e6
          : 0;
  result.client_mgets_per_sec =
      phase_secs > 0 ? static_cast<double>(all.count()) / phase_secs : 0;

  std::uint64_t hits = 0, total = 0;
  for (unsigned c = 0; c < config.clients; ++c) {
    hits += client_hits[c];
    total += client_keys[c];
  }
  result.observed_hit_rate =
      total ? static_cast<double>(hits) / static_cast<double>(total) : 0;
  return result;
}

}  // namespace simdht
