// TCP Multi-Get server: epoll event loop + cross-connection batching.
//
// The simulated KvServer (kvs/server.h) dedicates one worker thread per
// channel, so a Multi-Get batch is always one client's batch. This server
// inverts that: a single event-loop thread serves every connection, and all
// Multi-Get frames that arrive within one epoll dispatch cycle — from any
// number of connections — are accumulated and flushed as ONE backend
// MultiGet call. The SIMD/AMAC probe pipeline therefore sees the combined
// batch: ten clients sending 16-key Multi-Gets concurrently produce
// 160-key probe batches, exactly the regime where the paper's out-of-order
// software pipelining pays off. The `kvs.net.batch_connections` histogram
// records how many distinct connections each flushed batch served, making
// the cross-connection coalescing observable (and testable).
//
// Request handling per frame:
//   SET       executed inline (preload path), response queued
//   MGET      parsed (keys copied out of the stream buffer into one byte
//             arena) and appended to the pending batch; responses are
//             built at flush, each straight from its slice of the batch
//   STATS     responds with a named-double snapshot of the serving metrics
//             (per-phase percentiles + batch occupancy), so a remote load
//             generator can embed server-side numbers in its report
//   SHUTDOWN  stops the server (admin op used by benchmark scripts)
//
// The pending batch is flushed when it reaches max_batch_keys or at the end
// of the dispatch cycle, whichever comes first — batching never delays a
// request past the epoll cycle that received it (no artificial latency,
// unlike Nagle-style timers).
//
// Threading: Listen()/Run()/PollOnce() belong to one thread; Stop() and
// StatsSnapshot() are safe from any thread.
#ifndef SIMDHT_NET_KV_TCP_SERVER_H_
#define SIMDHT_NET_KV_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kvs/backend.h"
#include "kvs/protocol.h"
#include "kvs/server.h"
#include "net/acceptor.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/metrics_http.h"
#include "obs/sliding_histogram.h"
#include "perf/metrics.h"

namespace simdht {

// Metric names exported by KvTcpServer (in addition to the kvs_metrics::
// per-phase histograms it shares with the simulated server).
namespace net_metrics {
inline constexpr char kBatches[] = "kvs.net.batches";
// Multi-Get request frames (plain + traced) accepted for processing.
inline constexpr char kRequests[] = "kvs.net.requests";
inline constexpr char kKeys[] = "kvs.net.keys";
inline constexpr char kHits[] = "kvs.net.hits";
inline constexpr char kConnections[] = "kvs.net.connections";
inline constexpr char kProtocolErrors[] = "kvs.net.protocol_errors";
// Distinct connections / total keys per flushed Multi-Get batch.
inline constexpr char kBatchConnections[] = "kvs.net.batch_connections";
inline constexpr char kBatchKeys[] = "kvs.net.batch_keys";
}  // namespace net_metrics

struct KvTcpServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read back via port()
  // Flush the pending batch mid-cycle once it holds this many keys.
  std::size_t max_batch_keys = 8192;
  // Per-connection write-buffer cap; beyond it reads pause (backpressure).
  std::size_t max_write_buffer = std::size_t{4} << 20;
  // Rolling metrics window: a ring of `window_intervals` buckets of
  // `window_interval_ms` each. Windowed percentiles/rates (METRICS op,
  // `win.*` STATS keys) reflect only the last
  // window_intervals * window_interval_ms of traffic.
  std::uint64_t window_interval_ms = 1000;
  unsigned window_intervals = 8;
  // Optional plain-HTTP Prometheus endpoint on the serving event loop
  // (GET /metrics). Port 0 = ephemeral; read back via metrics_port().
  bool enable_metrics_http = false;
  std::uint16_t metrics_http_port = 0;
};

class KvTcpServer {
 public:
  // `metrics` is optional; when null the server owns a private registry.
  // Either way StatsSnapshot() reads it and kStats serves it remotely.
  KvTcpServer(KvBackend* backend, KvTcpServerOptions options = {},
              MetricsRegistry* metrics = nullptr);
  ~KvTcpServer();

  KvTcpServer(const KvTcpServer&) = delete;
  KvTcpServer& operator=(const KvTcpServer&) = delete;

  // Binds and listens; port() is valid afterwards.
  bool Listen(std::string* err);
  std::uint16_t port() const { return acceptor_.port(); }

  // Event loop until Stop() (or a SHUTDOWN frame). Call from one thread.
  void Run();

  // Listen() (if not yet listening) + Run() on an internal thread.
  bool StartBackground(std::string* err);

  // Thread-safe; Run returns after the current cycle. Join() afterwards
  // when StartBackground was used.
  void Stop();
  void Join();

  // One dispatch cycle: epoll wait, handle every ready event, flush the
  // pending cross-connection batch, send responses, reap closed
  // connections. Returns events dispatched (-1 on poll error). Exposed so
  // tests can drive the server deterministically without a thread.
  int PollOnce(int timeout_ms);

  // Named-double snapshot (what a STATS request returns): per-phase
  // latency percentiles in ns, batch occupancy, counters, rolling-window
  // tails (`win.*`), per-shard probe counters. Thread-safe.
  StatsPairs StatsSnapshot() const;

  // Prometheus text exposition (what a METRICS request and the HTTP
  // endpoint return). Thread-safe.
  std::string RenderMetricsText() const;

  // Valid after Listen() when options.enable_metrics_http; 0 otherwise.
  std::uint16_t metrics_port() const {
    return metrics_http_ ? metrics_http_->port() : 0;
  }

  MetricsSnapshot Metrics() const { return metrics_->Aggregate(); }

  std::size_t num_connections() const { return conns_.size(); }

 private:
  struct Conn {
    std::unique_ptr<Connection> connection;
    std::uint32_t epoll_mask = 0;
    bool dead = false;
    std::uint64_t flushed_in = 0;  // last flush_seq_ that sent its writes
  };
  // One MGET frame awaiting the batch flush. Keys live in the batch key
  // arena (owned copies; the stream buffer is recycled before the flush).
  struct PendingMget {
    int fd;
    std::uint64_t conn_id;
    std::size_t first_key;  // range [first_key, first_key + num_keys)
    std::size_t num_keys;
    // Trace context (kTracedMultiGet only). rx_us is the server timeline
    // timestamp at frame receipt, echoed to the client for clock alignment.
    bool traced = false;
    bool sampled = false;
    std::uint64_t trace_id = 0;
    double rx_us = 0.0;
  };

  void RegisterMetricIds();
  void OnAcceptReady();
  void OnConnEvent(int fd, std::uint32_t ready);
  void DrainFrames(Conn* conn);
  void HandleFrame(Conn* conn, const Buffer& frame);
  void FlushBatch();
  void FlushIdleWrites();
  void UpdateInterest(Conn* conn);
  void CloseConn(int fd);

  KvBackend* backend_;
  KvTcpServerOptions options_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  struct {
    MetricId batches, requests, keys, hits, connections, protocol_errors;
    MetricId batch_connections, batch_keys;
    MetricId parse_ns, index_probe_ns, value_copy_ns, transport_ns;
  } ids_{};
  double tsc_ghz_;

  // Rolling windows (merge-on-read rings; see obs/sliding_histogram.h).
  // Latencies in ns; dispatch_us in µs. `requests`/`keys`/`hits` record
  // per-flush totals so sum_rate_per_s gives windowed requests/s, keys/s,
  // hits/s; `dispatch_*` are recorded once per dispatch cycle that handled
  // at least one event (the duration includes the epoll wait itself).
  struct Windows {
    explicit Windows(const SlidingHistogram::Options& w)
        : parse_ns(w), index_probe_ns(w), value_copy_ns(w),
          transport_ns(w), batch_connections(w), batch_keys(w),
          requests(w), keys(w), hits(w), dispatch_us(w),
          dispatch_events(w) {}
    SlidingHistogram parse_ns, index_probe_ns, value_copy_ns, transport_ns;
    SlidingHistogram batch_connections, batch_keys;
    SlidingHistogram requests, keys, hits;
    SlidingHistogram dispatch_us, dispatch_events;
  };
  std::unique_ptr<Windows> windows_;

  EventLoop loop_;
  Acceptor acceptor_;
  std::unique_ptr<MetricsHttpListener> metrics_http_;
  std::map<int, std::unique_ptr<Conn>> conns_;
  std::vector<std::unique_ptr<Conn>> dead_conns_;  // closed end-of-cycle
  std::uint64_t next_conn_id_ = 1;

  // Pending cross-connection batch (reset at every flush). Key k of the
  // batch is batch_key_bytes_[batch_key_ends_[k-1], batch_key_ends_[k]).
  std::vector<PendingMget> pending_;
  std::string batch_key_bytes_;
  std::vector<std::size_t> batch_key_ends_;
  std::uint64_t flush_seq_ = 0;

  // Parse and flush scratch (reused across frames and batches).
  Buffer frame_;
  MultiGetRequest mget_req_;
  std::vector<std::uint64_t> scratch_conn_ids_;
  std::vector<std::string_view> scratch_views_;
  std::vector<std::string_view> scratch_vals_;
  std::vector<std::uint8_t> scratch_found_;
  std::vector<std::uint64_t> scratch_handles_;
  Buffer response_;

  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace simdht

#endif  // SIMDHT_NET_KV_TCP_SERVER_H_
