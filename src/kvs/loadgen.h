// memslap-style Multi-Get load generator (paper Section VI-B).
//
// Reproduces the paper's client setup: N client threads, 20 B keys / 32 B
// values, Multi-Get batches of 16-96 keys, skewed (mutilate-like) or uniform
// key popularity, measuring end-to-end Multi-Get latency and server-side
// Get throughput.
//
// Two arrival disciplines:
//   * closed-loop (paper protocol): each client fires its next Multi-Get
//     the moment the previous response lands. Measures capacity, but a slow
//     server quietly throttles the offered load, hiding tail latency
//     (coordinated omission).
//   * open-loop: requests follow a fixed-QPS arrival schedule (uniform or
//     Poisson) computed up front, and latency is recorded from each
//     request's *intended* send time — a response that was delayed because
//     the sender fell behind schedule is charged the full delay.
#ifndef SIMDHT_KVS_LOADGEN_H_
#define SIMDHT_KVS_LOADGEN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "kvs/backend.h"
#include "kvs/server.h"
#include "kvs/transport.h"

namespace simdht {

enum class ArrivalMode {
  kClosedLoop,  // send-on-response (the paper's memslap behaviour)
  kUniform,     // open loop, fixed inter-arrival gap 1/qps
  kPoisson,     // open loop, exponential gaps with mean 1/qps
};

const char* ArrivalModeName(ArrivalMode mode);
bool ParseArrivalMode(std::string_view name, ArrivalMode* mode);

// Intended send times (nanosecond offsets from schedule start, ascending)
// for `count` requests at aggregate rate `qps`. Deterministic in (mode,
// qps, count, seed); kClosedLoop yields an empty schedule. The Poisson
// schedule is a superposition-safe single stream: exponential gaps drawn
// from a generator seeded only by `seed`.
std::vector<std::uint64_t> BuildArrivalSchedule(ArrivalMode mode, double qps,
                                                std::size_t count,
                                                std::uint64_t seed);

struct MemslapConfig {
  unsigned clients = 2;                  // client threads / server workers
  std::size_t num_keys = 100000;         // preloaded key population
  std::size_t key_size = 20;             // bytes (paper: 20 B)
  std::size_t val_size = 32;             // bytes (paper: 32 B)
  unsigned mget_size = 16;               // keys per Multi-Get (16 or 96)
  std::size_t requests_per_client = 2000;
  double hit_rate = 0.95;
  bool zipf = true;                      // mutilate-like skew
  double zipf_s = 0.99;
  WireModel wire = WireModel::InfinibandEdr();
  std::uint64_t seed = 1;
  // Arrival discipline. For the open-loop modes `target_qps` is the
  // aggregate intended Multi-Get rate across all clients (each client runs
  // its 1/clients share of the schedule).
  ArrivalMode arrival = ArrivalMode::kClosedLoop;
  double target_qps = 0;
};

struct MemslapResult {
  std::string backend_name;
  std::size_t preloaded = 0;

  // End-to-end Multi-Get latency (client-observed), microseconds. Under
  // open-loop arrivals these are measured from the intended send time.
  double mget_mean_us = 0;
  double mget_p50_us = 0;
  double mget_p95_us = 0;
  double mget_p99_us = 0;
  double mget_p999_us = 0;
  double mget_p9999_us = 0;

  // Server-side Get throughput: keys retired per second of server
  // data-access processing, across all workers (the metric SIMD lookup
  // acceleration moves in Fig 11a).
  double server_get_mops = 0;

  // Aggregate client-observed Multi-Get rate (wire time included).
  double client_mgets_per_sec = 0;

  // Open-loop bookkeeping: the rate the schedule intended, and the worst
  // lag between a request's intended and actual send time (microseconds).
  double intended_qps = 0;
  double max_send_lag_us = 0;

  // Server-side Multi-Get totals and the per-phase breakdown (Fig 11b):
  // mean ns per batch of pre-processing (parse), hash-table lookup (index
  // probe) and post-processing (value copy), from the exact sums of the
  // server's phase histograms.
  std::uint64_t mget_batches = 0;
  std::uint64_t mget_keys = 0;
  double pre_process_ns = 0;
  double ht_lookup_ns = 0;
  double post_process_ns = 0;
  double observed_hit_rate = 0;
};

// Fixed-width key string for index i, e.g. "key:0000000042......".
std::string MakeKeyString(std::size_t index, std::size_t key_size);

// Preloads `backend` through the wire and drives the Multi-Get phase.
// When `metrics` is non-null it is attached to the server, which exports
// the kvs_metrics:: series into it (see kvs/request_engine.h), so the
// caller can read phase tails (p95/p99/p999) besides the means above.
MemslapResult RunMemslap(KvBackend* backend, const MemslapConfig& config,
                         MetricsRegistry* metrics = nullptr);

}  // namespace simdht

#endif  // SIMDHT_KVS_LOADGEN_H_
