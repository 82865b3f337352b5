// TCP Multi-Get server: an epoll event loop around the KvRequestEngine
// (kvs/request_engine.h) that the simulated KvServer runs too. This class
// owns only the loop, the connections, backpressure and deferred closes.
//
// Where the simulated server flushes after each request, this one lets the
// Multi-Get frames of one epoll dispatch cycle — from any number of
// connections — accumulate and flushes them as ONE backend MultiGet. The
// SIMD/AMAC probe pipeline therefore sees the combined batch: ten clients
// sending 16-key Multi-Gets produce 160-key probe batches, the regime where
// the paper's software pipelining pays off; the `batch_connections` series
// makes that coalescing observable. The batch is flushed at max_batch_keys
// or at the end of the cycle, so batching never delays a request past the
// cycle that received it. A malformed frame closes its connection (a stream
// cannot be resynchronized) and counts as a protocol error.
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

#include "kvs/request_engine.h"
#include "net/acceptor.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/metrics_http.h"

namespace simdht {

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

  // What a STATS request, and a METRICS request or the HTTP endpoint,
  // return (the engine's catalogue). Thread-safe.
  StatsPairs StatsSnapshot() const { return engine_.StatsSnapshot(); }
  std::string RenderMetricsText() const { return engine_.RenderMetricsText(); }
  MetricsSnapshot Metrics() const { return engine_.Metrics(); }

  // Valid after Listen() when options.enable_metrics_http; 0 otherwise.
  std::uint16_t metrics_port() const {
    return metrics_http_ ? metrics_http_->port() : 0;
  }

  std::size_t num_connections() const { return conns_.size(); }

 private:
  struct Conn {
    std::unique_ptr<Connection> connection;
    std::uint32_t epoll_mask = 0;
    bool dead = false;
  };

  void OnAcceptReady();
  void OnConnEvent(std::uint64_t id, std::uint32_t ready);
  void DrainFrames(Conn* conn);
  void UpdateInterest(Conn* conn);
  void CloseConn(Conn* conn);
  // One coalesced send per connection with queued responses: the
  // transport phase of a flush, and the end of every dispatch cycle.
  void Send();

  KvTcpServerOptions options_;
  KvRequestEngine engine_;
  KvRequestEngine::Worker worker_{&engine_};
  const KvRequestEngine::ReplySink sink_{
      [this](std::uint64_t id, const Buffer& response) {
        const auto it = conns_.find(id);  // gone if it died since the parse
        if (it != conns_.end()) it->second->connection->QueueFrame(response);
      },
      [this] { Send(); }};

  EventLoop loop_;
  Acceptor acceptor_;
  std::unique_ptr<MetricsHttpListener> metrics_http_;
  std::map<std::uint64_t, std::unique_ptr<Conn>> conns_;  // by id
  std::vector<std::unique_ptr<Conn>> dead_conns_;  // closed end-of-cycle
  std::uint64_t next_conn_id_ = 1;
  Buffer frame_;
  Buffer response_;

  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace simdht

#endif  // SIMDHT_NET_KV_TCP_SERVER_H_
