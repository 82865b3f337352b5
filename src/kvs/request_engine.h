// The request engine both KVS servers run (paper Section VI-A): everything
// between a received request frame and its response frame. The simulated
// KvServer (kvs/server.h) and the TCP KvTcpServer (net/kv_tcp_server.h) are
// frame sources and sinks around it.
//
//   Handle(frame)  decodes one frame and dispatches on its opcode. MGET
//                  and TMGET copy their keys into the pending batch (phase
//                  1, "parse"). Any other frame first flushes the pending
//                  batch if it holds a request from the same connection,
//                  so each connection's replies leave in request order;
//                  then SET, MSET, STATS and METRICS are answered at once,
//                  and SHUTDOWN and malformed frames go back to the
//                  transport, which decides what they mean.
//   Flush(sink)    runs one backend MultiGet over the batch (phase 2, "index
//                  probe"), then TouchBatch and one response per request,
//                  encoded from its slice of the results (phase 3, "value
//                  copy"); then the sink sends them ("transport").
//
// Fig 11(b)'s pre-process / HT lookup / post-process are parse / index probe
// / value copy. Phase times are TSC stamps around the work alone; metric,
// window and span records come after. Trace spans ("server" category) are
// recorded only for batches that carry a sampled TMGET. One engine serves
// all threads of a server and owns (or borrows) the registry, the rolling
// windows and the catalogue behind STATS and METRICS; each serving thread
// drives its own Worker, which holds a pending batch.
#ifndef SIMDHT_KVS_REQUEST_ENGINE_H_
#define SIMDHT_KVS_REQUEST_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kvs/backend.h"
#include "kvs/protocol.h"
#include "obs/sliding_histogram.h"
#include "perf/metrics.h"

namespace simdht {

// The serving series of both servers: six registry counters, six registry
// histograms, then the window-only dispatch pair (TCP dispatch cycles that
// handled an event: µs including the epoll wait, ready events). All but
// batches, connections and protocol_errors also have a rolling window.
namespace kvs_metrics {
inline constexpr char kBatches[] = "kvs.batches";
inline constexpr char kRequests[] = "kvs.requests";  // MGET + TMGET frames
inline constexpr char kKeys[] = "kvs.keys";
inline constexpr char kHits[] = "kvs.hits";
inline constexpr char kConnections[] = "kvs.connections";
inline constexpr char kProtocolErrors[] = "kvs.protocol_errors";
inline constexpr char kBatchConnections[] = "kvs.batch_connections";
inline constexpr char kBatchKeys[] = "kvs.batch_keys";
inline constexpr char kParseNs[] = "kvs.parse_ns";             // phase 1
inline constexpr char kIndexProbeNs[] = "kvs.index_probe_ns";  // phase 2
inline constexpr char kValueCopyNs[] = "kvs.value_copy_ns";    // phase 3
inline constexpr char kTransportNs[] = "kvs.transport_ns";     // send
inline constexpr char kDispatchUs[] = "kvs.dispatch_us";
inline constexpr char kDispatchEvents[] = "kvs.dispatch_events";
}  // namespace kvs_metrics

// One row of the serving-metric catalogue. STATS and METRICS are both
// rendered from this table, in its order; a test checks every row against
// both and against docs/observability.md.
struct KvSeries {
  enum class Source : std::uint8_t {
    kCounter,     // registry counter `name`
    kHistogram,   // registry histogram `name` (lifetime)
    kWindow,      // rolling window of `name`
    kWindowRate,  // rolling window of `name`, as its sum per second
    kWindowSpan,  // seconds the rolling window spans
    kHitRate,     // hits / keys over the rolling window
    kOne,         // capability or unit declaration, always 1
    kTscGhz,      // TSC rate the phase ticks are converted with
    kShardCount,  // index shards of the backend
    kShard,       // `shard_field` of each shard's ShardProbeCounters: STATS
                  // `shard.N.<stats>`, METRICS `<family>{shard="N"}`
  };
  // Statistics a row shows, in output order. STATS appends ".mean",
  // ".p50", ... to `stats` for each but kValue; METRICS labels them
  // `quantile` (rows with a `phase`) or `stat`.
  enum Stat : std::uint8_t {
    kValue = 1, kMean = 2, kP50 = 4, kP90 = 8, kP99 = 16, kP999 = 32, kMax = 64
  };

  Source source;
  const char* name;   // series name; nullptr for derived rows
  const char* stats;  // STATS key, or key prefix
  std::uint8_t stats_stats;
  const char* family = nullptr;  // Prometheus family; nullptr: STATS only
  const char* phase = nullptr;   // `phase` label of a summary family
  std::uint8_t family_stats = 0;
  const char* help = nullptr;
  std::uint64_t ShardProbeCounters::* shard_field = nullptr;
};

std::span<const KvSeries> KvSeriesCatalogue();

class KvRequestEngine {
 public:
  enum class Verdict : std::uint8_t {
    kReply,      // *reply holds the response; send it now
    kQueued,     // a Multi-Get joined the pending batch; Flush answers it
    kShutdown,   // SHUTDOWN: stop serving; no response
    kMalformed,  // undecodable frame or unknown opcode; no response,
                 // counted in protocol_errors
  };

  // Where a flushed batch's responses go: `queue` takes each request's
  // response, addressed by its connection id (never reused; batch
  // occupancy counts distinct ids) and dropped if that connection is gone;
  // `send` then puts them on the wire (the transport phase).
  struct ReplySink {
    std::function<void(std::uint64_t conn, const Buffer& response)> queue;
    std::function<void()> send;
  };

  // The per-thread half: the pending batch and its scratch.
  class Worker {
   public:
    explicit Worker(KvRequestEngine* engine) : engine_(engine) {}

    // `sink` takes the pending batch when a non-Multi-Get frame from a
    // connection with a pending request flushes it.
    Verdict Handle(const Buffer& frame, std::uint64_t conn,
                   const ReplySink& sink, Buffer* reply);
    std::size_t pending_keys() const { return key_ends_.size(); }
    void Flush(const ReplySink& sink);  // no-op on an empty batch

   private:
    // A Multi-Get awaiting the flush. Its keys are owned copies in the
    // arena, because a stream transport recycles the frame buffer first.
    struct Pending {
      std::uint64_t conn;
      std::size_t first_key;
      std::size_t num_keys;
      bool traced;   // TMGET: answer with the trace id and rx/tx stamps
      bool sampled;  // record spans for it
      std::uint64_t trace_id;
      double rx_us;  // Timeline clock at receipt
    };

    KvRequestEngine* engine_;
    // Key k of the batch is key_bytes_[key_ends_[k-1], key_ends_[k]).
    std::vector<Pending> pending_;
    std::string key_bytes_;
    std::vector<std::size_t> key_ends_;
    // Scratch, reused across frames and batches.
    MultiGetRequest mget_;
    std::vector<std::uint8_t> mset_ok_;
    std::vector<std::uint64_t> conns_;
    std::vector<std::string_view> keys_;
    std::vector<std::string_view> vals_;
    std::vector<std::uint8_t> found_;
    std::vector<std::uint64_t> handles_;
    Buffer response_;
  };

  // `metrics` is optional; when null the engine owns a private registry.
  // `windows` sizes the rolling windows behind the `win.*` series.
  explicit KvRequestEngine(KvBackend* backend,
                           MetricsRegistry* metrics = nullptr,
                           SlidingHistogram::Options windows = {});
  KvRequestEngine(const KvRequestEngine&) = delete;  // Workers point here
  KvRequestEngine& operator=(const KvRequestEngine&) = delete;

  // STATS body and METRICS (Prometheus text) body. Thread-safe.
  StatsPairs StatsSnapshot() const;
  std::string RenderMetricsText() const;
  MetricsSnapshot Metrics() const { return metrics_->Aggregate(); }

  // Transport events that are part of the catalogue.
  void CountConnection() { Add(kConnectionsId, 1); }
  void CountProtocolError() { Add(kProtocolErrorsId, 1); }
  void RecordDispatch(std::uint64_t us, std::uint64_t events) {
    windows_[kDispatchUsId]->Record(us);
    windows_[kDispatchEventsId]->Record(events);
  }

 private:
  // Index of a kvs_metrics:: name, in declaration order.
  enum Series : unsigned {
    kBatchesId, kRequestsId, kKeysId, kHitsId, kConnectionsId,
    kProtocolErrorsId, kBatchConnectionsId, kBatchKeysId, kParseNsId,
    kIndexProbeNsId, kValueCopyNsId, kTransportNsId, kDispatchUsId,
    kDispatchEventsId, kNumSeries,
  };

  std::uint64_t ToNs(std::uint64_t ticks) const {
    return static_cast<std::uint64_t>(static_cast<double>(ticks) / tsc_ghz_);
  }
  void Add(Series s, std::uint64_t delta) {
    metrics_->Local()->Add(ids_[s], delta);
  }
  // A sample of a histogram series: its registry histogram and window.
  void Record(Series s, std::uint64_t value) {
    metrics_->Local()->Record(ids_[s], value);
    windows_[s]->Record(value);
  }
  // One value the catalogue shows. `stat` and `quantile` label a histogram
  // statistic (null for kValue); `shard` labels a kShard row.
  struct Sample {
    const KvSeries& row;
    const char* stat;
    const char* quantile;
    const std::string& shard;
    double value;
  };
  // Calls emit for every sample of METRICS (`metrics`) or STATS, in
  // catalogue order.
  void EachSample(bool metrics,
                  const std::function<void(const Sample&)>& emit) const;

  KvBackend* backend_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  double tsc_ghz_;
  MetricId ids_[kDispatchUsId] = {};  // the registry series
  std::unique_ptr<SlidingHistogram> windows_[kNumSeries];  // null: none
};

}  // namespace simdht

#endif  // SIMDHT_KVS_REQUEST_ENGINE_H_
