#include "net/kv_tcp_server.h"

#include <sys/epoll.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>

#include "common/timer.h"
#include "obs/prometheus.h"
#include "obs/timeline.h"

namespace simdht {

namespace {

SlidingHistogram::Options WindowOptions(const KvTcpServerOptions& o) {
  SlidingHistogram::Options w;
  w.interval_ns = o.window_interval_ms * 1'000'000ull;
  w.intervals = o.window_intervals == 0 ? 1 : o.window_intervals;
  return w;
}

std::string TraceIdHex(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

KvTcpServer::KvTcpServer(KvBackend* backend, KvTcpServerOptions options,
                         MetricsRegistry* metrics)
    : backend_(backend),
      options_(std::move(options)),
      metrics_(metrics),
      tsc_ghz_(TscGhz()),
      windows_(std::make_unique<Windows>(WindowOptions(options_))) {
  if (!metrics_) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  RegisterMetricIds();
}

KvTcpServer::~KvTcpServer() {
  Stop();
  Join();
}

void KvTcpServer::RegisterMetricIds() {
  ids_.batches = metrics_->Counter(net_metrics::kBatches);
  ids_.requests = metrics_->Counter(net_metrics::kRequests);
  ids_.keys = metrics_->Counter(net_metrics::kKeys);
  ids_.hits = metrics_->Counter(net_metrics::kHits);
  ids_.connections = metrics_->Counter(net_metrics::kConnections);
  ids_.protocol_errors = metrics_->Counter(net_metrics::kProtocolErrors);
  ids_.batch_connections =
      metrics_->Histogram(net_metrics::kBatchConnections);
  ids_.batch_keys = metrics_->Histogram(net_metrics::kBatchKeys);
  ids_.parse_ns = metrics_->Histogram(kvs_metrics::kParseNs);
  ids_.index_probe_ns = metrics_->Histogram(kvs_metrics::kIndexProbeNs);
  ids_.value_copy_ns = metrics_->Histogram(kvs_metrics::kValueCopyNs);
  ids_.transport_ns = metrics_->Histogram(kvs_metrics::kTransportNs);
}

bool KvTcpServer::Listen(std::string* err) {
  if (!loop_.valid()) {
    if (err) *err = loop_.init_error();
    return false;
  }
  if (!acceptor_.Listen(options_.host, options_.port, err)) return false;
  if (!loop_.Add(
          acceptor_.fd(), EPOLLIN | EPOLLET,
          [this](std::uint32_t) { OnAcceptReady(); }, err)) {
    return false;
  }
  if (options_.enable_metrics_http && !metrics_http_) {
    metrics_http_ = std::make_unique<MetricsHttpListener>(
        &loop_, [this] { return RenderMetricsText(); });
    if (!metrics_http_->Listen(options_.host, options_.metrics_http_port,
                               err)) {
      metrics_http_.reset();
      return false;
    }
  }
  return true;
}

void KvTcpServer::Run() {
  while (!stop_.load(std::memory_order_relaxed)) {
    PollOnce(50);
  }
  // Final cycle already flushed; drop every connection.
  conns_.clear();
  dead_conns_.clear();
}

bool KvTcpServer::StartBackground(std::string* err) {
  if (!acceptor_.listening() && !Listen(err)) return false;
  thread_ = std::thread([this] { Run(); });
  return true;
}

void KvTcpServer::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  loop_.Wakeup();
}

void KvTcpServer::Join() {
  if (thread_.joinable()) thread_.join();
}

int KvTcpServer::PollOnce(int timeout_ms) {
  const auto cycle_start = std::chrono::steady_clock::now();
  const int dispatched = loop_.PollOnce(timeout_ms);
  FlushBatch();
  FlushIdleWrites();
  if (dispatched > 0) {
    // Dispatch-cycle duration includes the epoll wait itself (so it bounds
    // the latency any frame spends queued behind the cycle); idle cycles
    // (zero events) are not recorded — they would swamp the window with
    // 50 ms timeouts.
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - cycle_start)
                        .count();
    windows_->dispatch_us.Record(static_cast<std::uint64_t>(us));
    windows_->dispatch_events.Record(static_cast<std::uint64_t>(dispatched));
  }
  if (metrics_http_) metrics_http_->EndOfCycle();
  dead_conns_.clear();  // actual close(); fds are recyclable from here on
  return dispatched;
}

void KvTcpServer::OnAcceptReady() {
  acceptor_.AcceptReady([this](int fd) {
    auto conn = std::make_unique<Conn>();
    conn->connection = std::make_unique<Connection>(
        fd, next_conn_id_++, options_.max_write_buffer);
    conn->epoll_mask = EPOLLIN | EPOLLET;
    std::string err;
    if (!loop_.Add(fd, conn->epoll_mask,
                   [this, fd](std::uint32_t ready) { OnConnEvent(fd, ready); },
                   &err)) {
      return;  // Conn destructor closes the fd
    }
    metrics_->Local()->Add(ids_.connections, 1);
    conns_[fd] = std::move(conn);
  });
}

void KvTcpServer::OnConnEvent(int fd, std::uint32_t ready) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();
  if (conn->dead) return;

  if (ready & (EPOLLHUP | EPOLLERR)) {
    CloseConn(fd);
    return;
  }
  if (ready & EPOLLOUT) {
    std::string err;
    if (!conn->connection->FlushWrites(&err)) {
      CloseConn(fd);
      return;
    }
  }
  if (ready & EPOLLIN) {
    std::string err;
    const bool alive = conn->connection->ReadReady(&err);
    // Frames fully received before EOF are still served.
    DrainFrames(conn);
    if (!alive && !conn->dead) {
      CloseConn(fd);
      return;
    }
  }
  if (!conn->dead) UpdateInterest(conn);
}

void KvTcpServer::DrainFrames(Conn* conn) {
  std::string err;
  for (;;) {
    switch (conn->connection->NextFrame(&frame_, &err)) {
      case FrameAssembler::Result::kNeedMore:
        return;
      case FrameAssembler::Result::kError:
        metrics_->Local()->Add(ids_.protocol_errors, 1);
        CloseConn(conn->connection->fd());
        return;
      case FrameAssembler::Result::kFrame:
        HandleFrame(conn, frame_);
        if (conn->dead || stop_.load(std::memory_order_relaxed)) return;
        if (batch_key_ends_.size() >= options_.max_batch_keys) FlushBatch();
        break;
    }
  }
}

void KvTcpServer::HandleFrame(Conn* conn, const Buffer& frame) {
  ThreadMetrics* m = metrics_->Local();
  Opcode op;
  std::string err;
  if (!PeekOpcode(frame, &op)) {
    m->Add(ids_.protocol_errors, 1);
    CloseConn(conn->connection->fd());
    return;
  }
  switch (op) {
    case Opcode::kSet: {
      SetRequest req;
      if (!DecodeSetRequest(frame, &req, &err)) break;
      EncodeSetResponse(backend_->Set(req.key, req.val), &response_);
      conn->connection->QueueFrame(response_);
      return;
    }
    case Opcode::kMultiSet: {
      MultiSetRequest req;
      if (!DecodeMultiSetRequest(frame, &req, &err)) break;
      std::vector<std::uint8_t> ok;
      backend_->MultiSet(req.keys, req.vals, &ok);
      EncodeMultiSetResponse(ok, &response_);
      conn->connection->QueueFrame(response_);
      return;
    }
    case Opcode::kMultiGet:
    case Opcode::kTracedMultiGet: {
      const double rx_us = Timeline::Global().NowUs();
      const std::uint64_t t0 = ReadTsc();
      TraceContext trace;
      if (op == Opcode::kTracedMultiGet) {
        if (!DecodeTracedMultiGetRequest(frame, &mget_req_, &trace, &err)) {
          break;
        }
      } else {
        if (!DecodeMultiGetRequest(frame, &mget_req_, &err)) break;
      }
      PendingMget p;
      p.fd = conn->connection->fd();
      p.conn_id = conn->connection->id();
      p.first_key = batch_key_ends_.size();
      p.num_keys = mget_req_.keys.size();
      p.traced = op == Opcode::kTracedMultiGet;
      p.sampled = trace.sampled;
      p.trace_id = trace.trace_id;
      p.rx_us = rx_us;
      // Copy keys out: the stream buffer the views point into is recycled
      // before the batch flush.
      for (const std::string_view key : mget_req_.keys) {
        batch_key_bytes_.append(key);
        batch_key_ends_.push_back(batch_key_bytes_.size());
      }
      pending_.push_back(p);
      const std::uint64_t t1 = ReadTsc();
      const auto parse_ns = static_cast<std::uint64_t>(
          static_cast<double>(t1 - t0) / tsc_ghz_);
      m->Record(ids_.parse_ns, parse_ns);
      m->Add(ids_.requests, 1);
      windows_->parse_ns.Record(parse_ns);
      if (p.sampled && Timeline::Global().enabled()) {
        Timeline::Global().RecordSpan(
            "server", "parse", rx_us, Timeline::Global().NowUs(),
            {TimelineArg::Str("trace_id", TraceIdHex(p.trace_id)),
             TimelineArg::Num("keys",
                              static_cast<double>(p.num_keys))});
      }
      return;
    }
    case Opcode::kStats: {
      EncodeStatsResponse(StatsSnapshot(), &response_);
      conn->connection->QueueFrame(response_);
      return;
    }
    case Opcode::kMetrics: {
      EncodeMetricsResponse(RenderMetricsText(), &response_);
      conn->connection->QueueFrame(response_);
      return;
    }
    case Opcode::kShutdown:
      stop_.store(true, std::memory_order_relaxed);
      return;
  }
  // Malformed frame or unknown opcode: the stream cannot be trusted.
  m->Add(ids_.protocol_errors, 1);
  CloseConn(conn->connection->fd());
}

void KvTcpServer::FlushBatch() {
  if (pending_.empty()) return;
  ThreadMetrics* m = metrics_->Local();
  Timeline& tl = Timeline::Global();
  bool any_sampled = false;
  for (const PendingMget& p : pending_) any_sampled |= p.sampled;
  const bool tracing = any_sampled && tl.enabled();

  // Views into the key arena, built now that it no longer grows.
  const std::size_t batch_keys = batch_key_ends_.size();
  scratch_views_.resize(batch_keys);
  std::size_t key_begin = 0;
  for (std::size_t k = 0; k < batch_keys; ++k) {
    scratch_views_[k] = std::string_view(batch_key_bytes_)
                            .substr(key_begin, batch_key_ends_[k] - key_begin);
    key_begin = batch_key_ends_[k];
  }

  // Phase 2: one index probe over the combined batch — keys from every
  // connection that spoke this cycle go down the SIMD pipeline together.
  const double us0 = tracing ? tl.NowUs() : 0.0;
  const std::uint64_t t0 = ReadTsc();
  backend_->MultiGet(scratch_views_, &scratch_vals_, &scratch_found_,
                     &scratch_handles_);
  const std::uint64_t t1 = ReadTsc();
  const double us1 = tracing ? tl.NowUs() : 0.0;

  // Phase 3: freshness updates + per-connection response build, each
  // request encoded straight from its slice of the batch results.
  backend_->TouchBatch(scratch_handles_);
  std::uint64_t hits = 0;
  for (const std::uint8_t f : scratch_found_) hits += f;

  scratch_conn_ids_.clear();
  for (const PendingMget& p : pending_) {
    scratch_conn_ids_.push_back(p.conn_id);
    const auto it = conns_.find(p.fd);
    if (it == conns_.end() || it->second->dead ||
        it->second->connection->id() != p.conn_id) {
      continue;  // connection died between parse and flush
    }
    const auto vals = std::span<const std::string_view>(scratch_vals_)
                          .subspan(p.first_key, p.num_keys);
    const auto found = std::span<const std::uint8_t>(scratch_found_)
                           .subspan(p.first_key, p.num_keys);
    if (p.traced) {
      // tx_us is stamped at encode so the client's midpoint estimate
      // brackets the server-side work actually done for this request.
      EncodeTracedMultiGetResponse(vals, found, p.trace_id,
                                   ServerTiming{p.rx_us, tl.NowUs()},
                                   &response_);
    } else {
      EncodeMultiGetResponse(vals, found, &response_);
    }
    it->second->connection->QueueFrame(response_);
  }
  std::sort(scratch_conn_ids_.begin(), scratch_conn_ids_.end());
  const std::size_t batch_conns = static_cast<std::size_t>(
      std::unique(scratch_conn_ids_.begin(), scratch_conn_ids_.end()) -
      scratch_conn_ids_.begin());
  const std::uint64_t t2 = ReadTsc();
  const double us2 = tracing ? tl.NowUs() : 0.0;

  // Transport: one coalesced send per connection in the batch.
  ++flush_seq_;
  for (const PendingMget& p : pending_) {
    const auto it = conns_.find(p.fd);
    if (it == conns_.end() || it->second->dead ||
        it->second->flushed_in == flush_seq_) {
      continue;
    }
    it->second->flushed_in = flush_seq_;
    std::string err;
    if (!it->second->connection->FlushWrites(&err)) {
      CloseConn(p.fd);
      continue;
    }
    UpdateInterest(it->second.get());
  }
  const std::uint64_t t3 = ReadTsc();
  const double us3 = tracing ? tl.NowUs() : 0.0;

  const auto to_ns = [this](std::uint64_t cycles) {
    return static_cast<std::uint64_t>(static_cast<double>(cycles) /
                                      tsc_ghz_);
  };
  m->Record(ids_.index_probe_ns, to_ns(t1 - t0));
  m->Record(ids_.value_copy_ns, to_ns(t2 - t1));
  m->Record(ids_.transport_ns, to_ns(t3 - t2));
  m->Add(ids_.batches, 1);
  m->Add(ids_.keys, batch_keys);
  m->Add(ids_.hits, hits);
  m->Record(ids_.batch_connections, batch_conns);
  m->Record(ids_.batch_keys, batch_keys);

  windows_->index_probe_ns.Record(to_ns(t1 - t0));
  windows_->value_copy_ns.Record(to_ns(t2 - t1));
  windows_->transport_ns.Record(to_ns(t3 - t2));
  windows_->batch_connections.Record(batch_conns);
  windows_->batch_keys.Record(batch_keys);
  // Per-flush totals: sum_rate_per_s of these windows gives requests/s,
  // keys/s, hits/s over the rolling window.
  windows_->requests.Record(pending_.size());
  windows_->keys.Record(batch_keys);
  windows_->hits.Record(hits);

  if (tracing) {
    // Batch-level spans carry the cross-connection occupancy so a trace
    // shows how much company each sampled request had in its batch.
    TimelineArgs occupancy{
        TimelineArg::Num("batch_connections",
                         static_cast<double>(batch_conns)),
        TimelineArg::Num("batch_keys",
                         static_cast<double>(batch_keys))};
    tl.RecordSpan("server", "index_probe", us0, us1, occupancy);
    tl.RecordSpan("server", "value_copy", us1, us2, occupancy);
    tl.RecordSpan("server", "transport", us2, us3, occupancy);
    for (const PendingMget& p : pending_) {
      if (!p.sampled) continue;
      tl.RecordSpan(
          "server", "request", p.rx_us, us3,
          {TimelineArg::Str("trace_id", TraceIdHex(p.trace_id)),
           TimelineArg::Num("keys", static_cast<double>(p.num_keys)),
           TimelineArg::Num("batch_connections",
                            static_cast<double>(batch_conns))});
    }
  }

  pending_.clear();
  batch_key_bytes_.clear();
  batch_key_ends_.clear();
}

void KvTcpServer::FlushIdleWrites() {
  // SET/STATS responses (and any leftovers) queued outside a batch flush.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) {
    (void)conn;
    fds.push_back(fd);
  }
  for (const int fd : fds) {
    const auto it = conns_.find(fd);
    if (it == conns_.end() || it->second->dead) continue;
    if (it->second->connection->wants_write()) {
      std::string err;
      if (!it->second->connection->FlushWrites(&err)) {
        CloseConn(fd);
        continue;
      }
    }
    UpdateInterest(it->second.get());
  }
}

void KvTcpServer::UpdateInterest(Conn* conn) {
  std::uint32_t want = EPOLLET;
  // Backpressure: a connection whose write buffer is over the cap stops
  // being read until the peer drains it.
  if (!conn->connection->backpressured()) want |= EPOLLIN;
  if (conn->connection->wants_write()) want |= EPOLLOUT;
  if (want == conn->epoll_mask) return;
  std::string err;
  if (loop_.Modify(conn->connection->fd(), want, &err)) {
    conn->epoll_mask = want;
  }
}

void KvTcpServer::CloseConn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  it->second->dead = true;
  loop_.Remove(fd);
  // The fd stays open until end-of-cycle: a stale event in this dispatch
  // batch must not hit a recycled fd number.
  dead_conns_.push_back(std::move(it->second));
  conns_.erase(it);
}

StatsPairs KvTcpServer::StatsSnapshot() const {
  const MetricsSnapshot snap = metrics_->Aggregate();
  StatsPairs out;
  const auto counter = [&](const char* short_name, const char* metric) {
    out.emplace_back(short_name,
                     static_cast<double>(snap.counter(metric)));
  };
  counter("batches", net_metrics::kBatches);
  counter("requests", net_metrics::kRequests);
  counter("keys", net_metrics::kKeys);
  counter("hits", net_metrics::kHits);
  counter("connections", net_metrics::kConnections);
  counter("protocol_errors", net_metrics::kProtocolErrors);

  // Capability/units header: lets a remote client negotiate the traced
  // protocol (proto.trace_context) and interpret the phase histograms
  // without guessing (units.phase_ns = 1 declares nanoseconds, NOT raw TSC
  // cycles; tsc_ghz is the conversion the server applied).
  out.emplace_back("proto.trace_context", 1.0);
  out.emplace_back("units.phase_ns", 1.0);
  out.emplace_back("tsc_ghz", tsc_ghz_);

  const struct {
    const char* metric;
    const char* label;
  } phases[] = {{kvs_metrics::kParseNs, "parse_ns"},
                {kvs_metrics::kIndexProbeNs, "index_probe_ns"},
                {kvs_metrics::kValueCopyNs, "value_copy_ns"},
                {kvs_metrics::kTransportNs, "transport_ns"}};
  for (const auto& phase : phases) {
    const auto it = snap.histograms.find(phase.metric);
    const class Histogram empty;
    const class Histogram& h =
        it != snap.histograms.end() ? it->second : empty;
    const std::string label(phase.label);
    out.emplace_back(label + ".mean", h.mean());
    out.emplace_back(label + ".p50",
                     static_cast<double>(h.Percentile(50)));
    out.emplace_back(label + ".p90",
                     static_cast<double>(h.Percentile(90)));
    out.emplace_back(label + ".p99",
                     static_cast<double>(h.Percentile(99)));
    out.emplace_back(label + ".p999", static_cast<double>(h.P999()));
  }
  const struct {
    const char* metric;
    const char* label;
  } occupancy[] = {{net_metrics::kBatchConnections, "batch_connections"},
                   {net_metrics::kBatchKeys, "batch_keys"}};
  for (const auto& series : occupancy) {
    const auto it = snap.histograms.find(series.metric);
    const class Histogram empty;
    const class Histogram& h =
        it != snap.histograms.end() ? it->second : empty;
    const std::string label(series.label);
    out.emplace_back(label + ".mean", h.mean());
    out.emplace_back(label + ".max", static_cast<double>(h.max()));
  }

  // Rolling-window view (`win.*`): only the last
  // window_intervals * window_interval_ms of traffic.
  {
    const auto req = windows_->requests.Snapshot();
    const auto key_win = windows_->keys.Snapshot();
    const auto hit_win = windows_->hits.Snapshot();
    out.emplace_back("win.window_s",
                     static_cast<double>(req.window_ns) / 1e9);
    out.emplace_back("win.requests_per_s", req.sum_rate_per_s);
    out.emplace_back("win.keys_per_s", key_win.sum_rate_per_s);
    out.emplace_back("win.hits_per_s", hit_win.sum_rate_per_s);
    const double wkeys = static_cast<double>(key_win.hist.sum());
    out.emplace_back("win.hit_rate",
                     wkeys > 0
                         ? static_cast<double>(hit_win.hist.sum()) / wkeys
                         : 0.0);
    const struct {
      const SlidingHistogram* win;
      const char* label;
    } win_phases[] = {{&windows_->parse_ns, "parse_ns"},
                      {&windows_->index_probe_ns, "index_probe_ns"},
                      {&windows_->value_copy_ns, "value_copy_ns"},
                      {&windows_->transport_ns, "transport_ns"},
                      {&windows_->dispatch_us, "dispatch_us"}};
    for (const auto& wp : win_phases) {
      const auto w = wp.win->Snapshot();
      const std::string label = std::string("win.") + wp.label;
      out.emplace_back(label + ".p50",
                       static_cast<double>(w.hist.Percentile(50)));
      out.emplace_back(label + ".p90",
                       static_cast<double>(w.hist.Percentile(90)));
      out.emplace_back(label + ".p99",
                       static_cast<double>(w.hist.Percentile(99)));
      out.emplace_back(label + ".p999", static_cast<double>(w.hist.P999()));
    }
    const struct {
      const SlidingHistogram* win;
      const char* label;
    } win_occ[] = {{&windows_->batch_connections, "batch_connections"},
                   {&windows_->batch_keys, "batch_keys"},
                   {&windows_->dispatch_events, "dispatch_events"}};
    for (const auto& wo : win_occ) {
      const auto w = wo.win->Snapshot();
      const std::string label = std::string("win.") + wo.label;
      out.emplace_back(label + ".mean", w.hist.mean());
      out.emplace_back(label + ".max", static_cast<double>(w.hist.max()));
    }
  }

  // Per-shard probe counters (empty for backends without shard stats).
  const std::vector<ShardProbeCounters> shards = backend_->ShardProbeStats();
  out.emplace_back("shards", static_cast<double>(shards.size()));
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const std::string prefix = "shard." + std::to_string(s);
    out.emplace_back(prefix + ".hits",
                     static_cast<double>(shards[s].hits));
    out.emplace_back(prefix + ".misses",
                     static_cast<double>(shards[s].misses));
    out.emplace_back(prefix + ".stash_hits",
                     static_cast<double>(shards[s].stash_hits));
  }
  return out;
}

std::string KvTcpServer::RenderMetricsText() const {
  const MetricsSnapshot snap = metrics_->Aggregate();
  PrometheusWriter w;

  const struct {
    const char* name;
    const char* metric;
    const char* help;
  } counters[] = {
      {"simdht_kvs_requests_total", net_metrics::kRequests,
       "Multi-Get request frames accepted (plain + traced)."},
      {"simdht_kvs_batches_total", net_metrics::kBatches,
       "Cross-connection Multi-Get batches flushed to the backend."},
      {"simdht_kvs_keys_total", net_metrics::kKeys,
       "Keys probed across all Multi-Get batches."},
      {"simdht_kvs_hits_total", net_metrics::kHits,
       "Keys found across all Multi-Get batches."},
      {"simdht_net_connections_total", net_metrics::kConnections,
       "TCP connections accepted."},
      {"simdht_net_protocol_errors_total", net_metrics::kProtocolErrors,
       "Frames rejected as malformed (connection closed)."},
  };
  for (const auto& c : counters) {
    w.Family(c.name, c.help, "counter");
    w.Sample(c.name, static_cast<double>(snap.counter(c.metric)));
  }

  const struct {
    const char* metric;
    const char* label;
  } phases[] = {{kvs_metrics::kParseNs, "parse"},
                {kvs_metrics::kIndexProbeNs, "index_probe"},
                {kvs_metrics::kValueCopyNs, "value_copy"},
                {kvs_metrics::kTransportNs, "transport"}};
  w.Family("simdht_kvs_phase_ns",
           "Per-phase serving latency quantiles in ns (lifetime).",
           "summary");
  for (const auto& phase : phases) {
    const auto it = snap.histograms.find(phase.metric);
    const class Histogram empty;
    const class Histogram& h =
        it != snap.histograms.end() ? it->second : empty;
    const struct {
      const char* q;
      double v;
    } quantiles[] = {{"0.5", static_cast<double>(h.Percentile(50))},
                     {"0.9", static_cast<double>(h.Percentile(90))},
                     {"0.99", static_cast<double>(h.Percentile(99))},
                     {"0.999", static_cast<double>(h.P999())}};
    for (const auto& q : quantiles) {
      w.Sample("simdht_kvs_phase_ns",
               {{"phase", phase.label}, {"quantile", q.q}}, q.v);
    }
  }

  const auto req = windows_->requests.Snapshot();
  const auto key_win = windows_->keys.Snapshot();
  const auto hit_win = windows_->hits.Snapshot();
  w.Family("simdht_window_seconds",
           "Span of the rolling metrics window.", "gauge");
  w.Sample("simdht_window_seconds",
           static_cast<double>(req.window_ns) / 1e9);
  w.Family("simdht_window_requests_per_s",
           "Multi-Get request frames per second over the window.", "gauge");
  w.Sample("simdht_window_requests_per_s", req.sum_rate_per_s);
  w.Family("simdht_window_keys_per_s",
           "Keys probed per second over the window.", "gauge");
  w.Sample("simdht_window_keys_per_s", key_win.sum_rate_per_s);
  w.Family("simdht_window_hits_per_s",
           "Keys found per second over the window.", "gauge");
  w.Sample("simdht_window_hits_per_s", hit_win.sum_rate_per_s);
  const double wkeys = static_cast<double>(key_win.hist.sum());
  w.Family("simdht_window_hit_rate",
           "Hit fraction over the window.", "gauge");
  w.Sample("simdht_window_hit_rate",
           wkeys > 0 ? static_cast<double>(hit_win.hist.sum()) / wkeys
                     : 0.0);

  w.Family("simdht_window_phase_ns",
           "Per-phase serving latency quantiles in ns over the window.",
           "summary");
  const struct {
    const SlidingHistogram* win;
    const char* label;
  } win_phases[] = {{&windows_->parse_ns, "parse"},
                    {&windows_->index_probe_ns, "index_probe"},
                    {&windows_->value_copy_ns, "value_copy"},
                    {&windows_->transport_ns, "transport"}};
  for (const auto& wp : win_phases) {
    const auto snap_w = wp.win->Snapshot();
    const struct {
      const char* q;
      double v;
    } quantiles[] = {
        {"0.5", static_cast<double>(snap_w.hist.Percentile(50))},
        {"0.9", static_cast<double>(snap_w.hist.Percentile(90))},
        {"0.99", static_cast<double>(snap_w.hist.Percentile(99))},
        {"0.999", static_cast<double>(snap_w.hist.P999())}};
    for (const auto& q : quantiles) {
      w.Sample("simdht_window_phase_ns",
               {{"phase", wp.label}, {"quantile", q.q}}, q.v);
    }
  }

  const struct {
    const SlidingHistogram* win;
    const char* name;
    const char* help;
  } win_occ[] = {
      {&windows_->batch_connections, "simdht_window_batch_connections",
       "Distinct connections per flushed batch over the window."},
      {&windows_->batch_keys, "simdht_window_batch_keys",
       "Keys per flushed batch over the window."},
      {&windows_->dispatch_us, "simdht_window_dispatch_us",
       "Dispatch-cycle duration in us over the window (incl. epoll wait)."},
      {&windows_->dispatch_events, "simdht_window_dispatch_events",
       "Ready events per dispatch cycle over the window."}};
  for (const auto& wo : win_occ) {
    const auto snap_w = wo.win->Snapshot();
    w.Family(wo.name, wo.help, "gauge");
    w.Sample(wo.name, {{"stat", "mean"}}, snap_w.hist.mean());
    w.Sample(wo.name, {{"stat", "p99"}},
             static_cast<double>(snap_w.hist.Percentile(99)));
    w.Sample(wo.name, {{"stat", "max"}},
             static_cast<double>(snap_w.hist.max()));
  }

  const std::vector<ShardProbeCounters> shards = backend_->ShardProbeStats();
  if (!shards.empty()) {
    const struct {
      const char* name;
      const char* help;
      std::uint64_t ShardProbeCounters::* field;
    } per_shard[] = {
        {"simdht_shard_hits_total", "Multi-Get hits per shard.",
         &ShardProbeCounters::hits},
        {"simdht_shard_misses_total", "Multi-Get misses per shard.",
         &ShardProbeCounters::misses},
        {"simdht_shard_stash_hits_total",
         "Multi-Get hits served from the overflow stash per shard.",
         &ShardProbeCounters::stash_hits}};
    for (const auto& series : per_shard) {
      w.Family(series.name, series.help, "counter");
      for (std::size_t s = 0; s < shards.size(); ++s) {
        w.Sample(series.name, {{"shard", std::to_string(s)}},
                 static_cast<double>(shards[s].*series.field));
      }
    }
  }
  return w.str();
}

}  // namespace simdht
