#include "kvs/request_engine.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "common/timer.h"
#include "obs/prometheus.h"
#include "obs/timeline.h"

namespace simdht {

namespace {

using namespace kvs_metrics;
using S = KvSeries;
using enum KvSeries::Source;

// kvs_metrics:: names, in Series order.
constexpr const char* kSeriesNames[] = {
    kBatches,  kRequests,     kKeys,         kHits,          kConnections,
    kProtocolErrors, kBatchConnections, kBatchKeys, kParseNs, kIndexProbeNs,
    kValueCopyNs, kTransportNs, kDispatchUs, kDispatchEvents};

constexpr std::uint8_t kV = S::kValue;
constexpr std::uint8_t kTails = S::kP50 | S::kP90 | S::kP99 | S::kP999;
constexpr std::uint8_t kSummary = S::kMean | kTails;
constexpr std::uint8_t kMeanMax = S::kMean | S::kMax;
constexpr std::uint8_t kMeanP99Max = S::kMean | S::kP99 | S::kMax;
constexpr char kPhase[] = "simdht_kvs_phase_ns";
constexpr char kPhaseHelp[] =
    "Per-phase serving latency quantiles in ns (lifetime).";
constexpr char kWinPhase[] = "simdht_window_phase_ns";
constexpr char kWinPhaseHelp[] =
    "Per-phase serving latency quantiles in ns over the window.";

// source, name, STATS key, its stats, family, phase, family stats, help;
// STATS-only rows end after their stats.
constexpr KvSeries kCatalogue[] = {
    {kCounter, kBatches, "batches", kV, "simdht_kvs_batches_total", {}, kV,
     "Multi-Get batches flushed to the backend."},
    {kCounter, kRequests, "requests", kV, "simdht_kvs_requests_total", {}, kV,
     "Multi-Get request frames accepted (plain + traced)."},
    {kCounter, kKeys, "keys", kV, "simdht_kvs_keys_total", {}, kV,
     "Keys probed across all Multi-Get batches."},
    {kCounter, kHits, "hits", kV, "simdht_kvs_hits_total", {}, kV,
     "Keys found across all Multi-Get batches."},
    {kCounter, kConnections, "connections", kV,
     "simdht_net_connections_total", {}, kV,
     "Connections accepted (a simulated channel counts as one)."},
    {kCounter, kProtocolErrors, "protocol_errors", kV,
     "simdht_net_protocol_errors_total", {}, kV, "Malformed frames rejected."},
    {kOne, {}, "proto.trace_context", kV},
    {kOne, {}, "units.phase_ns", kV},
    {kTscGhz, {}, "tsc_ghz", kV},
    {kHistogram, kParseNs, "parse_ns", kSummary, kPhase, "parse", kTails,
     kPhaseHelp},
    {kHistogram, kIndexProbeNs, "index_probe_ns", kSummary, kPhase,
     "index_probe", kTails, kPhaseHelp},
    {kHistogram, kValueCopyNs, "value_copy_ns", kSummary, kPhase,
     "value_copy", kTails, kPhaseHelp},
    {kHistogram, kTransportNs, "transport_ns", kSummary, kPhase, "transport",
     kTails, kPhaseHelp},
    {kHistogram, kBatchConnections, "batch_connections", kMeanMax},
    {kHistogram, kBatchKeys, "batch_keys", kMeanMax},
    {kWindowSpan, {}, "win.window_s", kV, "simdht_window_seconds", {}, kV,
     "Span of the rolling metrics window."},
    {kWindowRate, kRequests, "win.requests_per_s", kV,
     "simdht_window_requests_per_s", {}, kV,
     "Multi-Get request frames per second over the window."},
    {kWindowRate, kKeys, "win.keys_per_s", kV, "simdht_window_keys_per_s", {},
     kV, "Keys probed per second over the window."},
    {kWindowRate, kHits, "win.hits_per_s", kV, "simdht_window_hits_per_s", {},
     kV, "Keys found per second over the window."},
    {kHitRate, {}, "win.hit_rate", kV, "simdht_window_hit_rate", {}, kV,
     "Hit fraction over the window."},
    {kWindow, kParseNs, "win.parse_ns", kTails, kWinPhase, "parse", kTails,
     kWinPhaseHelp},
    {kWindow, kIndexProbeNs, "win.index_probe_ns", kTails, kWinPhase,
     "index_probe", kTails, kWinPhaseHelp},
    {kWindow, kValueCopyNs, "win.value_copy_ns", kTails, kWinPhase,
     "value_copy", kTails, kWinPhaseHelp},
    {kWindow, kTransportNs, "win.transport_ns", kTails, kWinPhase, "transport",
     kTails, kWinPhaseHelp},
    {kWindow, kDispatchUs, "win.dispatch_us", kTails,
     "simdht_window_dispatch_us", {}, kMeanP99Max,
     "Dispatch-cycle duration in us over the window (incl. epoll wait)."},
    {kWindow, kBatchConnections, "win.batch_connections", kMeanMax,
     "simdht_window_batch_connections", {}, kMeanP99Max,
     "Distinct connections per flushed batch over the window."},
    {kWindow, kBatchKeys, "win.batch_keys", kMeanMax,
     "simdht_window_batch_keys", {}, kMeanP99Max,
     "Keys per flushed batch over the window."},
    {kWindow, kDispatchEvents, "win.dispatch_events", kMeanMax,
     "simdht_window_dispatch_events", {}, kMeanP99Max,
     "Ready events per dispatch cycle over the window."},
    {kShardCount, {}, "shards", kV},
    {kShard, {}, "hits", kV, "simdht_shard_hits_total", {}, kV,
     "Multi-Get hits per shard.", &ShardProbeCounters::hits},
    {kShard, {}, "misses", kV, "simdht_shard_misses_total", {}, kV,
     "Multi-Get misses per shard.", &ShardProbeCounters::misses},
    {kShard, {}, "stash_hits", kV, "simdht_shard_stash_hits_total", {}, kV,
     "Multi-Get hits served from the overflow stash per shard.",
     &ShardProbeCounters::stash_hits},
};

// Each histogram statistic: its STATS suffix / METRICS `stat` label, its
// METRICS `quantile` label, and the quantile itself.
constexpr struct {
  S::Stat stat;
  const char* label;
  const char* quantile;
  double q;
} kStatNames[] = {
    {S::kMean, "mean", nullptr, 0.0},   {S::kP50, "p50", "0.5", 0.5},
    {S::kP90, "p90", "0.9", 0.9},       {S::kP99, "p99", "0.99", 0.99},
    {S::kP999, "p999", "0.999", 0.999}, {S::kMax, "max", nullptr, 0.0}};

std::string TraceIdHex(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

std::span<const KvSeries> KvSeriesCatalogue() { return kCatalogue; }

KvRequestEngine::KvRequestEngine(KvBackend* backend, MetricsRegistry* metrics,
                                 SlidingHistogram::Options windows)
    : backend_(backend), metrics_(metrics), tsc_ghz_(TscGhz()) {
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  windows.intervals = std::max(windows.intervals, 1u);
  for (unsigned s = 0; s < kNumSeries; ++s) {
    if (s < kDispatchUsId) {
      ids_[s] = s < kBatchConnectionsId ? metrics_->Counter(kSeriesNames[s])
                                        : metrics_->Histogram(kSeriesNames[s]);
    }
    if (s != kBatchesId && s != kConnectionsId && s != kProtocolErrorsId) {
      windows_[s] = std::make_unique<SlidingHistogram>(windows);
    }
  }
}

KvRequestEngine::Verdict KvRequestEngine::Worker::Handle(
    const Buffer& frame, std::uint64_t conn, const ReplySink& sink,
    Buffer* reply) {
  KvRequestEngine& e = *engine_;
  Opcode op{};  // an empty frame has no opcode and falls through as malformed
  PeekOpcode(frame, &op);
  if (op != Opcode::kMultiGet && op != Opcode::kTracedMultiGet &&
      std::any_of(pending_.begin(), pending_.end(),
                  [conn](const Pending& p) { return p.conn == conn; })) {
    // Answer this connection's earlier Multi-Gets first: their responses
    // go out ahead of this frame's reply, and a SET cannot change what they
    // read. Other connections' requests only share the batch, so they need
    // no flush.
    Flush(sink);
  }
  switch (op) {
    case Opcode::kSet: {
      SetRequest req;
      if (!DecodeSetRequest(frame, &req)) break;
      EncodeSetResponse(e.backend_->Set(req.key, req.val), reply);
      return Verdict::kReply;
    }
    case Opcode::kMultiSet: {
      MultiSetRequest req;
      if (!DecodeMultiSetRequest(frame, &req)) break;
      e.backend_->MultiSet(req.keys, req.vals, &mset_ok_);
      EncodeMultiSetResponse(mset_ok_, reply);
      return Verdict::kReply;
    }
    case Opcode::kMultiGet:
    case Opcode::kTracedMultiGet: {
      // Phase 1: parse the request and copy its keys into the batch.
      Timeline& tl = Timeline::Global();
      const double rx_us = tl.NowUs();
      const std::uint64_t t0 = ReadTsc();
      const bool traced = op == Opcode::kTracedMultiGet;
      TraceContext trace;
      if (traced ? !DecodeTracedMultiGetRequest(frame, &mget_, &trace)
                 : !DecodeMultiGetRequest(frame, &mget_)) {
        break;
      }
      pending_.push_back({conn, key_ends_.size(), mget_.keys.size(), traced,
                          trace.sampled, trace.trace_id, rx_us});
      for (const std::string_view key : mget_.keys) {
        key_bytes_.append(key);
        key_ends_.push_back(key_bytes_.size());
      }
      e.Record(kParseNsId, e.ToNs(ReadTsc() - t0));
      e.Add(kRequestsId, 1);
      if (trace.sampled && tl.enabled()) {
        tl.RecordSpan(
            "server", "parse", rx_us, tl.NowUs(),
            {TimelineArg::Str("trace_id", TraceIdHex(trace.trace_id)),
             TimelineArg::Num("keys",
                              static_cast<double>(mget_.keys.size()))});
      }
      return Verdict::kQueued;
    }
    case Opcode::kStats:
      EncodeStatsResponse(e.StatsSnapshot(), reply);
      return Verdict::kReply;
    case Opcode::kMetrics:
      EncodeMetricsResponse(e.RenderMetricsText(), reply);
      return Verdict::kReply;
    case Opcode::kShutdown: return Verdict::kShutdown;
  }
  e.CountProtocolError();
  return Verdict::kMalformed;
}

void KvRequestEngine::Worker::Flush(const ReplySink& sink) {
  if (pending_.empty()) return;
  KvRequestEngine& e = *engine_;
  Timeline& tl = Timeline::Global();
  const bool tracing =
      tl.enabled() && std::any_of(pending_.begin(), pending_.end(),
                                  [](const Pending& p) { return p.sampled; });

  // Views into the key arena, built now that it no longer grows.
  const std::size_t batch_keys = key_ends_.size();
  keys_.resize(batch_keys);
  const std::string_view arena = key_bytes_;
  for (std::size_t k = 0, begin = 0; k < batch_keys; begin = key_ends_[k++]) {
    keys_[k] = arena.substr(begin, key_ends_[k] - begin);
  }

  // Phase 2: one index probe over the whole batch.
  const double us0 = tracing ? tl.NowUs() : 0.0;
  const std::uint64_t t0 = ReadTsc();
  e.backend_->MultiGet(keys_, &vals_, &found_, &handles_);
  const std::uint64_t t1 = ReadTsc();
  const double us1 = tracing ? tl.NowUs() : 0.0;

  // Phase 3: freshness updates + one response per request, each encoded
  // straight from its slice of the batch results.
  e.backend_->TouchBatch(handles_);
  const std::uint64_t hits =
      std::accumulate(found_.begin(), found_.end(), std::uint64_t{0});
  conns_.clear();
  for (const Pending& p : pending_) {
    conns_.push_back(p.conn);
    const auto vals = std::span<const std::string_view>(vals_).subspan(
        p.first_key, p.num_keys);
    const auto found =
        std::span<const std::uint8_t>(found_).subspan(p.first_key, p.num_keys);
    if (p.traced) {
      // tx_us is stamped at encode so the client's midpoint estimate
      // brackets the server-side work actually done for this request.
      EncodeTracedMultiGetResponse(vals, found, p.trace_id,
                                   ServerTiming{p.rx_us, tl.NowUs()},
                                   &response_);
    } else {
      EncodeMultiGetResponse(vals, found, &response_);
    }
    sink.queue(p.conn, response_);
  }
  std::sort(conns_.begin(), conns_.end());
  const std::size_t batch_conns = static_cast<std::size_t>(
      std::unique(conns_.begin(), conns_.end()) - conns_.begin());
  const std::uint64_t t2 = ReadTsc();
  const double us2 = tracing ? tl.NowUs() : 0.0;

  sink.send();  // transport
  const std::uint64_t t3 = ReadTsc();
  const double us3 = tracing ? tl.NowUs() : 0.0;

  e.Record(kIndexProbeNsId, e.ToNs(t1 - t0));
  e.Record(kValueCopyNsId, e.ToNs(t2 - t1));
  e.Record(kTransportNsId, e.ToNs(t3 - t2));
  e.Record(kBatchConnectionsId, batch_conns);
  e.Record(kBatchKeysId, batch_keys);
  e.Add(kBatchesId, 1);
  e.Add(kKeysId, batch_keys);
  e.Add(kHitsId, hits);
  // Per-flush totals: these windows' sum rates are requests/s, keys/s and
  // hits/s.
  e.windows_[kRequestsId]->Record(pending_.size());
  e.windows_[kKeysId]->Record(batch_keys);
  e.windows_[kHitsId]->Record(hits);

  if (tracing) {
    // Batch-level spans carry the batch occupancy, so a trace shows how
    // much company each sampled request had in its batch.
    const TimelineArgs occupancy{
        TimelineArg::Num("batch_connections",
                         static_cast<double>(batch_conns)),
        TimelineArg::Num("batch_keys", static_cast<double>(batch_keys))};
    tl.RecordSpan("server", "index_probe", us0, us1, occupancy);
    tl.RecordSpan("server", "value_copy", us1, us2, occupancy);
    tl.RecordSpan("server", "transport", us2, us3, occupancy);
    for (const Pending& p : pending_) {
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
  key_bytes_.clear();
  key_ends_.clear();
}

void KvRequestEngine::EachSample(
    bool metrics, const std::function<void(const Sample&)>& emit) const {
  const MetricsSnapshot snap = metrics_->Aggregate();
  const std::vector<ShardProbeCounters> shards = backend_->ShardProbeStats();
  const auto window = [this](const char* name) {
    unsigned s = 0;
    while (s + 1 < kNumSeries && std::strcmp(kSeriesNames[s], name) != 0) ++s;
    return windows_[s]->Snapshot();
  };
  const std::string no_shard;
  for (const KvSeries& s : kCatalogue) {
    const std::uint8_t mask = metrics ? s.family_stats : s.stats_stats;
    if (mask == 0) continue;
    double value = 0.0;
    Histogram hist;
    const auto d = [](auto x) { return static_cast<double>(x); };
    switch (s.source) {
      case kCounter: value = d(snap.counter(s.name)); break;
      case kHistogram:
        if (snap.histograms.count(s.name)) hist = snap.histograms.at(s.name);
        break;
      case kWindow: hist = window(s.name).hist; break;
      case kWindowRate: value = window(s.name).sum_rate_per_s; break;
      case kWindowSpan: value = d(window(kRequests).window_ns) / 1e9; break;
      case kHitRate: {
        const double keys = d(window(kKeys).hist.sum());
        value = keys > 0 ? d(window(kHits).hist.sum()) / keys : 0.0;
        break;
      }
      case kOne: value = 1.0; break;
      case kTscGhz: value = tsc_ghz_; break;
      case kShardCount: value = d(shards.size()); break;
      case kShard:
        for (std::size_t i = 0; i < shards.size(); ++i) {
          emit({s, nullptr, nullptr, std::to_string(i),
                d(shards[i].*s.shard_field)});
        }
        continue;
    }
    if (mask & S::kValue) emit({s, nullptr, nullptr, no_shard, value});
    for (const auto& st : kStatNames) {
      if (!(mask & st.stat)) continue;
      const std::uint64_t v =
          st.stat == S::kMax ? hist.max() : hist.Quantile(st.q);
      emit({s, st.label, st.quantile, no_shard,
            st.stat == S::kMean ? hist.mean() : d(v)});
    }
  }
}

StatsPairs KvRequestEngine::StatsSnapshot() const {
  StatsPairs out;
  EachSample(false, [&out](const Sample& x) {
    std::string key = x.row.stats;
    if (!x.shard.empty()) key = "shard." + x.shard + "." + key;
    if (x.stat != nullptr) key = key + "." + x.stat;
    out.emplace_back(std::move(key), x.value);
  });
  return out;
}

std::string KvRequestEngine::RenderMetricsText() const {
  PrometheusWriter w;
  const char* family = "";
  EachSample(true, [&](const Sample& x) {
    const KvSeries& s = x.row;
    if (std::strcmp(family, s.family) != 0) {
      family = s.family;
      w.Family(family, s.help,
               s.source == kCounter || s.source == kShard ? "counter"
               : s.phase != nullptr ? "summary"
                                    : "gauge");
    }
    if (!x.shard.empty()) {
      w.Sample(family, {{"shard", x.shard}}, x.value);
    } else if (x.stat == nullptr) {
      w.Sample(family, x.value);
    } else if (s.phase != nullptr) {
      w.Sample(family, {{"phase", s.phase}, {"quantile", x.quantile}},
               x.value);
    } else {
      w.Sample(family, {{"stat", x.stat}}, x.value);
    }
  });
  return w.str();
}

}  // namespace simdht
