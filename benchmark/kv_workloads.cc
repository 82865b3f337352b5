// KVS workloads: an in-process KvTcpServer on a thread this benchmark owns,
// driven over loopback by two closed-loop KvTcpClient connections, each on
// its own pinned thread.
//
//   kv-rw-llc    Memc3Backend, 200 k items (inside L3), Zipf 0.99; 95 %
//                MultiGet of 16 keys, 5 % single-key Set overwriting an
//                existing key.
//   kv-get-dram  SimdBackend::BucketCuckooHorAvx2(), 4 M items (>> L3),
//                uniform, MultiGet of 96 keys, read-only.
//
// Keys are 20 B, values 32 B. A value spells its key id ("v<id>:<version>"),
// so a wrong item is caught even while other connections overwrite the key.
// 95 % of MultiGet keys exist; the rest come from an id range never loaded.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/zipf.h"
#include "kvs/loadgen.h"
#include "kvs/memc3_backend.h"
#include "kvs/simd_backend.h"
#include "net/kv_tcp_client.h"
#include "net/kv_tcp_server.h"
#include "workloads.h"

namespace bench {

namespace {

// Long enough for the pinned core to reach its steady speed after set-up.
constexpr double kWarmupSeconds = 2.0;
constexpr std::size_t kKeySize = 20;
constexpr std::size_t kValSize = 32;
constexpr unsigned kClients = 2;

struct KvSpec {
  bool simd = false;  // SimdBackend (else Memc3Backend)
  std::uint64_t items = 0;
  std::size_t mget_keys = 0;
  double set_share = 0;
  bool zipf = false;
  std::size_t pool_per_client = 0;  // pre-built requests, cycled
};

KvSpec SpecFor(const Args& args) {
  KvSpec s;
  if (args.workload == "kv-rw-llc") {
    s.items = args.tiny ? 2000 : 200000;
    s.mget_keys = 16;
    s.set_share = 0.05;
    s.zipf = true;
    s.pool_per_client = args.tiny ? 2048 : 65536;
  } else {
    s.simd = true;
    s.items = args.tiny ? 20000 : 4000000;
    s.mget_keys = 96;
    s.pool_per_client = args.tiny ? 512 : 16384;
  }
  return s;
}

// Index entries a user would provision: room for the items at 80 % load.
std::uint64_t EntriesFor(const KvSpec& s) { return s.items * 5 / 4; }
std::size_t MemoryLimitFor(const KvSpec& s) {
  return static_cast<std::size_t>(s.items) * 256 + (std::size_t{64} << 20);
}

std::unique_ptr<simdht::KvBackend> MakeBackend(const KvSpec& s) {
  if (s.simd) {
    return std::make_unique<simdht::SimdBackend>(
        simdht::SimdBackend::BucketCuckooHorAvx2(), EntriesFor(s),
        MemoryLimitFor(s));
  }
  return std::make_unique<simdht::Memc3Backend>(EntriesFor(s),
                                                MemoryLimitFor(s));
}

void FormatValue(std::uint64_t id, std::uint64_t version, char* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "v%010llu:%010llu",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(version % 10000000000ull));
  std::memset(out, '.', kValSize);
  std::memcpy(out, buf, std::strlen(buf));
}

// True when `val` is a well-formed value of item `id`.
bool ValueMatches(std::string_view val, std::uint64_t id) {
  if (val.size() != kValSize || val[0] != 'v' || val[11] != ':') return false;
  std::uint64_t got = 0;
  for (std::size_t i = 1; i <= 10; ++i) {
    const char c = val[i];
    if (c < '0' || c > '9') return false;
    got = got * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return got == id;
}

// All keys, contiguous: ids [0, items) are loaded, ids
// [items, items + absent) never are.
struct KeySpace {
  std::uint64_t absent = 0;
  std::string buf;

  std::string_view Key(std::uint64_t id) const {
    return std::string_view(buf).substr(id * kKeySize, kKeySize);
  }
};

KeySpace MakeKeySpace(std::uint64_t items) {
  KeySpace ks;
  ks.absent = std::min<std::uint64_t>(items, 1 << 16);
  ks.buf.reserve((items + ks.absent) * kKeySize);
  for (std::uint64_t id = 0; id < items + ks.absent; ++id) {
    ks.buf += simdht::MakeKeyString(id, kKeySize);
  }
  return ks;
}

// One pre-built request. Ids >= items are expected to miss.
struct Request {
  bool is_set = false;
  std::vector<std::string_view> keys;
  std::vector<std::uint32_t> ids;
  std::string value;  // Set only
};

std::vector<Request> MakePool(const KvSpec& spec, const KeySpace& ks,
                              std::uint64_t seed, unsigned client) {
  simdht::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + 101 + client);
  const simdht::ZipfGenerator zipf(spec.items, 0.99);
  const std::uint64_t scramble = Mix32(static_cast<std::uint32_t>(seed));
  const auto present = [&]() -> std::uint64_t {
    return spec.zipf ? ScrambleRank(zipf.Next(&rng), spec.items, scramble)
                     : rng.NextBounded(spec.items);
  };
  std::vector<Request> pool(spec.pool_per_client);
  std::uint64_t version = static_cast<std::uint64_t>(client + 1) << 32;
  for (Request& r : pool) {
    r.is_set = rng.NextDouble() < spec.set_share;
    const std::size_t n = r.is_set ? 1 : spec.mget_keys;
    for (std::size_t i = 0; i < n; ++i) {
      const bool hit = r.is_set || rng.NextDouble() < 0.95;
      const std::uint64_t id =
          hit ? present() : spec.items + rng.NextBounded(ks.absent);
      r.keys.push_back(ks.Key(id));
      r.ids.push_back(static_cast<std::uint32_t>(id));
    }
    if (r.is_set) {
      r.value.resize(kValSize);
      FormatValue(r.ids[0], ++version, r.value.data());
    }
  }
  return pool;
}

// Times every call the server makes into the backend; installed only for
// the traced phase. Called from the server's single event-loop thread.
class TimedBackend : public simdht::KvBackend {
 public:
  TimedBackend(simdht::KvBackend* inner, SpanSink* spans)
      : inner_(inner), spans_(spans) {
    set.keep_latency = true;
  }

  const char* name() const override { return inner_->name(); }
  bool Set(std::string_view key, std::string_view val) override {
    const double s_us = SpanSink::NowUs();
    const bool ok = inner_->Set(key, val);
    const double e_us = SpanSink::NowUs();
    set.Add(1, (e_us - s_us) * 1e3);
    set.ok += ok;
    calls_us.emplace_back(s_us, e_us);
    spans_->Span("kvs", "Set", s_us, e_us, 0, 1);
    return ok;
  }
  std::size_t MultiSet(const std::vector<std::string_view>& keys,
                       const std::vector<std::string_view>& vals,
                       std::vector<std::uint8_t>* ok) override {
    return inner_->MultiSet(keys, vals, ok);
  }
  bool Get(std::string_view key, std::string* val) override {
    return inner_->Get(key, val);
  }
  std::size_t MultiGet(const std::vector<std::string_view>& keys,
                       std::vector<std::string_view>* vals,
                       std::vector<std::uint8_t>* found,
                       std::vector<std::uint64_t>* handles) override {
    const double s_us = SpanSink::NowUs();
    const std::size_t hits = inner_->MultiGet(keys, vals, found, handles);
    const double e_us = SpanSink::NowUs();
    mget.Add(keys.size(), (e_us - s_us) * 1e3);
    mget.ok += hits;
    calls_us.emplace_back(s_us, e_us);
    spans_->Span("kvs", "MultiGet", s_us, e_us, 0,
                 static_cast<double>(keys.size()));
    // Keep the batch for the standalone replay (bounded).
    if (replay_keys.size() < (std::size_t{1} << 25)) {
      for (const std::string_view k : keys) replay_keys.append(k);
      replay_batches.push_back(keys.size());
    }
    return hits;
  }
  bool Erase(std::string_view key) override { return inner_->Erase(key); }
  std::uint64_t size() const override { return inner_->size(); }
  std::vector<simdht::ShardProbeCounters> ShardProbeStats() const override {
    return inner_->ShardProbeStats();
  }

  LayerTimer mget;
  LayerTimer set;
  std::vector<std::pair<double, double>> calls_us;  // every call, in order
  std::string replay_keys;                          // kKeySize each
  std::vector<std::size_t> replay_batches;

 private:
  simdht::KvBackend* inner_;
  SpanSink* spans_;
};

// Self-test hook: replaces the first hit of every MultiGet with a value
// that belongs to no item, which the clients must count as wrong.
class CorruptingBackend : public simdht::KvBackend {
 public:
  explicit CorruptingBackend(simdht::KvBackend* inner) : inner_(inner) {}

  const char* name() const override { return inner_->name(); }
  bool Set(std::string_view key, std::string_view val) override {
    return inner_->Set(key, val);
  }
  bool Get(std::string_view key, std::string* val) override {
    return inner_->Get(key, val);
  }
  std::size_t MultiGet(const std::vector<std::string_view>& keys,
                       std::vector<std::string_view>* vals,
                       std::vector<std::uint8_t>* found,
                       std::vector<std::uint64_t>* handles) override {
    const std::size_t hits = inner_->MultiGet(keys, vals, found, handles);
    static const std::string kBogus(kValSize, 'x');
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if ((*found)[i]) {
        (*vals)[i] = kBogus;
        break;
      }
    }
    return hits;
  }
  bool Erase(std::string_view key) override { return inner_->Erase(key); }
  std::uint64_t size() const override { return inner_->size(); }

 private:
  simdht::KvBackend* inner_;
};

// A KvTcpServer over `backend`, listening and running on a thread pinned to
// the server CPU until the object is destroyed.
class ServerThread {
 public:
  explicit ServerThread(simdht::KvBackend* backend) : server_(backend) {
    std::promise<std::string> listening;
    auto ready = listening.get_future();
    // The thread owns the promise, so set_value never touches an object
    // this constructor has already destroyed.
    thread_ = std::thread([this, listening = std::move(listening)]() mutable {
      PinToCpu(CpuForRole(0));
      std::string err;
      if (!server_.Listen(&err)) {
        listening.set_value(err.empty() ? "listen failed" : err);
        return;
      }
      listening.set_value("");
      server_.Run();
    });
    error_ = ready.get();
  }
  ~ServerThread() {
    server_.Stop();
    thread_.join();
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  const std::string& error() const { return error_; }
  std::uint16_t port() const { return server_.port(); }
  double Stat(const std::string& name) const {
    for (const auto& [k, v] : server_.StatsSnapshot()) {
      if (k == name) return v;
    }
    return 0;
  }

 private:
  simdht::KvTcpServer server_;
  std::string error_;
  std::thread thread_;
};

// What the clients of one phase saw.
struct ClientPhase {
  std::uint64_t mget_reqs = 0, mget_keys = 0, sets = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::string first_error;
  std::vector<Sample> mget, set;  // client round trips
  // Traced MultiGets only.
  std::vector<double> residency_us, rtt_minus_residency_us;
  std::vector<std::pair<double, double>> residency_span_us;  // rx, tx
  std::uint64_t start_ns = 0, end_ns = 0;

  void Merge(ClientPhase&& o) {
    mget_reqs += o.mget_reqs;
    mget_keys += o.mget_keys;
    sets += o.sets;
    attempted += o.attempted;
    if (failed == 0 && o.failed != 0) first_error = o.first_error;
    failed += o.failed;
    const auto append = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(mget, o.mget);
    append(set, o.set);
    append(residency_us, o.residency_us);
    append(rtt_minus_residency_us, o.rtt_minus_residency_us);
    append(residency_span_us, o.residency_span_us);
    end_ns = std::max(end_ns, o.end_ns);
  }
  double KeysPerSecond() const {
    return static_cast<double>(mget_keys + sets) /
           (static_cast<double>(end_ns - start_ns) / 1e9);
  }
  std::vector<Sample> All() const {
    std::vector<Sample> all = mget;
    all.insert(all.end(), set.begin(), set.end());
    return all;
  }
};

// One closed-loop connection: sends pool requests in order (cycling) until
// `deadline_ns`, checking every returned value. `stored[id]` says whether
// the preload stored item id; ids past its end were never loaded. A key the
// preload refused may since have been stored by a Set, so either outcome
// is accepted for it.
void RunClient(std::uint16_t port, unsigned client,
               const std::vector<Request>& pool, std::size_t* cursor,
               const std::vector<std::uint8_t>& stored, bool traced,
               SpanSink* spans,
               std::uint64_t start_ns, std::uint64_t deadline_ns,
               ClientPhase* out) {
  PinToCpu(CpuForRole(1 + static_cast<int>(client)));
  const auto fail = [out](std::uint64_t n, const std::string& why) {
    if (out->failed == 0) out->first_error = why;
    out->failed += n;
  };
  simdht::KvTcpClient conn;
  std::string err;
  if (!conn.Connect("127.0.0.1", port, &err)) {
    out->attempted += 1;
    fail(1, "connect: " + err);
    return;
  }
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  simdht::TracedExchange ex;
  std::uint64_t seq = 0;
  while (NowNs() < start_ns) {
    // Both connections start at the same instant.
  }
  while (NowNs() < deadline_ns) {
    const Request& r = pool[*cursor];
    *cursor = (*cursor + 1) % pool.size();
    out->attempted += r.keys.size();
    if (r.is_set) {
      const double s_us = SpanSink::NowUs();
      const std::uint64_t t0 = NowNs();
      const bool ok = conn.Set(r.keys[0], r.value, &err);
      const std::uint64_t t1 = NowNs();
      out->set.push_back({t1, static_cast<double>(t1 - t0), 1});
      spans->Span("client", "Set", s_us, SpanSink::NowUs(), 0, 1);
      ++out->sets;
      if (!ok) {
        fail(1, "Set: " + err);
        break;
      }
      continue;
    }
    bool ok = false;
    if (traced) {
      const std::uint64_t trace_id = (std::uint64_t{client} + 1) << 40 | ++seq;
      ok = conn.MultiGetTraced(r.keys, simdht::TraceContext{trace_id, false},
                               &vals, &found, &ex, &err);
      if (ok) {
        const double rtt = ex.client_recv_us - ex.client_send_us;
        const double residency = ex.server.tx_us - ex.server.rx_us;
        out->mget.push_back({NowNs(), rtt * 1e3,
                             static_cast<std::uint32_t>(r.keys.size())});
        out->residency_us.push_back(residency);
        out->rtt_minus_residency_us.push_back(rtt - residency);
        out->residency_span_us.emplace_back(ex.server.rx_us, ex.server.tx_us);
        spans->Span("client", "MultiGet", ex.client_send_us,
                    ex.client_recv_us, trace_id,
                    static_cast<double>(r.keys.size()));
        spans->Span("net", "residency", ex.server.rx_us, ex.server.tx_us,
                    trace_id, static_cast<double>(r.keys.size()));
      }
    } else {
      const std::uint64_t t0 = NowNs();
      ok = conn.MultiGet(r.keys, &vals, &found, &err);
      const std::uint64_t t1 = NowNs();
      out->mget.push_back({t1, static_cast<double>(t1 - t0),
                           static_cast<std::uint32_t>(r.keys.size())});
    }
    if (!ok) {
      fail(r.keys.size(), "MultiGet: " + err);
      break;
    }
    ++out->mget_reqs;
    out->mget_keys += r.keys.size();
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < r.keys.size(); ++i) {
      const std::uint32_t id = r.ids[i];
      const bool right = found[i] && ValueMatches(vals[i], id);
      if (id >= stored.size()) {
        bad += found[i] != 0;
      } else if (stored[id]) {
        bad += !right;
      } else {
        bad += found[i] && !right;
      }
    }
    if (bad != 0) fail(bad, "MultiGet returned a wrong item or hit flag");
  }
  out->end_ns = NowNs();
  conn.Close();
}

// Runs both clients against `port` for `seconds`.
ClientPhase RunClients(std::uint16_t port,
                       const std::vector<std::vector<Request>>& pools,
                       std::vector<std::size_t>* cursors,
                       const std::vector<std::uint8_t>& stored, bool traced,
                       SpanSink* spans, double seconds) {
  std::vector<ClientPhase> per(kClients);
  // Connect first, then start both loops at the same instant.
  const std::uint64_t start = NowNs() + 20000000;
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  // The server's and the clients' CPUs stay awake while the phase runs.
  std::vector<int> cpus;
  for (int role = 0; role <= static_cast<int>(kClients); ++role) {
    cpus.push_back(CpuForRole(role));
  }
  const IdleSpinners spinners(cpus);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back(RunClient, port, c, std::cref(pools[c]),
                         &(*cursors)[c], std::cref(stored), traced, spans,
                         start, deadline, &per[c]);
  }
  for (std::thread& t : threads) t.join();
  ClientPhase all;
  all.start_ns = start;
  for (ClientPhase& p : per) all.Merge(std::move(p));
  return all;
}

void CountPhase(const ClientPhase& p, Report* report) {
  report->Attempt(p.attempted);
  report->Fail(p.failed, p.first_error);
}

struct Loaded {
  std::unique_ptr<simdht::KvBackend> backend;
  double setup_s = 0;
  double rss_growth = 0;
  LayerTimer multiset;
  std::vector<std::uint8_t> stored;  // per id: MultiSet reported it stored
  std::uint64_t rejected = 0;
};

// Constructs the backend and preloads every item through MultiSet in 4 Ki
// chunks. Only construction and the MultiSet calls are timed, in thread CPU
// time.
//
// SimdBackend indexes 32-bit hashes of the keys and documents that Set
// refuses a key whose hash another stored key already holds; at 4 M items a
// few thousand keys collide. Such a refusal is correct behaviour when the
// backend's own collision counter accounts for it: the item is then
// expected to read back as absent. Any other refusal is a failure.
Loaded Load(const KvSpec& spec, const KeySpace& ks, SpanSink* spans,
            Report* report) {
  Loaded l;
  const std::uint64_t rss0 = ResidentBytes();
  const std::uint64_t t0 = ThreadCpuNs();
  l.backend = MakeBackend(spec);
  double setup_ns = static_cast<double>(ThreadCpuNs() - t0);
  constexpr std::size_t kChunk = 4096;
  std::string vbuf(kChunk * kValSize, '.');
  std::vector<std::string_view> keys, vals;
  std::vector<std::uint8_t> ok;
  l.stored.assign(spec.items, 0);
  for (std::uint64_t start = 0; start < spec.items; start += kChunk) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunk, spec.items - start));
    keys.clear();
    vals.clear();
    for (std::size_t i = 0; i < n; ++i) {
      FormatValue(start + i, 0, &vbuf[i * kValSize]);
      keys.push_back(ks.Key(start + i));
      vals.emplace_back(&vbuf[i * kValSize], kValSize);
    }
    const double s_us = SpanSink::NowUs();
    const std::uint64_t t = ThreadCpuNs();
    const std::size_t stored = l.backend->MultiSet(keys, vals, &ok);
    const double ns = static_cast<double>(ThreadCpuNs() - t);
    spans->Span("kvs", "MultiSet", s_us, SpanSink::NowUs(), 0,
                static_cast<double>(n));
    l.multiset.Add(n, ns);
    setup_ns += ns;
    l.rejected += n - stored;
    for (std::size_t i = 0; i < n; ++i) l.stored[start + i] = ok[i];
  }
  l.setup_s = setup_ns / 1e9;
  l.rss_growth = static_cast<double>(ResidentBytes() - rss0);
  const std::uint64_t collisions =
      spec.simd
          ? static_cast<simdht::SimdBackend*>(l.backend.get())->hash_collisions()
          : 0;
  report->Attempt(spec.items);
  report->Fail(l.rejected > collisions ? l.rejected - collisions : 0,
               "MultiSet refused an item without a hash collision");
  return l;
}

// Sum of the parts of the backend calls (sorted by start) inside [a, b).
double Covered(const std::vector<std::pair<double, double>>& calls, double a,
               double b) {
  auto it = std::lower_bound(
      calls.begin(), calls.end(), std::make_pair(a, 0.0),
      [](const auto& x, const auto& y) { return x.second < y.first; });
  double covered = 0;
  for (; it != calls.end() && it->first < b; ++it) {
    covered += std::max(0.0, std::min(b, it->second) - std::max(a, it->first));
  }
  return covered;
}

// Latencies in microseconds, pooled over the whole phase.
std::vector<double> PooledUs(const std::vector<Sample>& samples) {
  std::vector<double> us;
  us.reserve(samples.size());
  for (const Sample& s : samples) us.push_back(s.latency_ns / 1e3);
  return us;
}

void ReportE2E(const ClientPhase& p, Report* report) {
  const Windowed all =
      Summarize(p.All(), p.start_ns, p.end_ns, kWindowNs, kClients);
  report->EndToEnd("ops_per_s", all.items_per_s, "1/s", p.mget_keys + p.sets);
  report->EndToEnd("req_p50_us", all.p50_us, "us", all.samples);
  report->EndToEnd("req_p90_us", all.p90_us, "us", all.samples);
  report->Info("req_p99_us", all.p99_us, "us", all.samples);
  report->Info("windows", static_cast<double>(all.windows), "count",
               all.windows);
  report->Info("wall_ops_per_s", all.wall_items_per_s, "1/s",
               p.mget_keys + p.sets);
  report->Info("requests_interrupted", static_cast<double>(all.interrupted),
               "count", all.samples);
  const Windowed mget = Summarize(p.mget, p.start_ns, p.end_ns, kWindowNs,
                                  kClients);
  report->Info("mget_per_s",
               static_cast<double>(p.mget_reqs) /
                   (static_cast<double>(p.end_ns - p.start_ns) / 1e9),
               "1/s", p.mget_reqs);
  report->Info("mget_p50_us", mget.p50_us, "us", mget.samples);
  report->Info("mget_p99_us", mget.p99_us, "us", mget.samples);
  if (!p.set.empty()) {
    std::vector<double> set = PooledUs(p.set);
    report->Info("set_p50_us", Percentile(&set, 50), "us", set.size());
    report->Info("set_p99_us", Percentile(&set, 99), "us", set.size());
  }
}

}  // namespace

int RunKvWorkload(const Args& args, Report* report) {
  const KvSpec spec = SpecFor(args);
  const KeySpace ks = MakeKeySpace(spec.items);
  std::vector<std::vector<Request>> pools;
  for (unsigned c = 0; c < kClients; ++c) {
    pools.push_back(MakePool(spec, ks, args.seed, c));
  }
  std::vector<std::size_t> cursors(kClients, 0);

  SpanSink spans;
  if (args.trace) spans.Enable(8);

  // Set-up, repeated; the last backend serves.
  std::vector<double> setup_s, rss;
  Loaded loaded;
  while (MoreSetUps(setup_s)) {
    loaded.backend.reset();
    // Hand the freed memory back so every repetition faults its memory in
    // afresh, as the first one does, and its RSS growth is comparable.
    malloc_trim(0);
    loaded = Load(spec, ks, &spans, report);
    setup_s.push_back(loaded.setup_s);
    rss.push_back(loaded.rss_growth);
  }
  simdht::KvBackend* backend = loaded.backend.get();
  report->Note(std::string("backend: ") + backend->name() + ", " +
               std::to_string(backend->size()) + " items, " +
               std::to_string(EntriesFor(spec)) + " index entries");
  report->Info("kvs.preload_refused", static_cast<double>(loaded.rejected),
               "count", spec.items);
  report->EndToEnd("setup_s", Median(setup_s), "s", setup_s.size());
  report->EndToEnd("mem_bytes_per_key",
                   Median(rss) / static_cast<double>(spec.items), "B/key",
                   rss.size());
  report->Layer("kvs.multiset_ns_per_key", loaded.multiset.NsPerItem(),
                "ns/key", loaded.multiset.calls);

  std::unique_ptr<CorruptingBackend> corrupting;
  if (args.corrupt) {
    corrupting = std::make_unique<CorruptingBackend>(backend);
    backend = corrupting.get();
  }

  RankCpus();
  report->Note(CoreMap(1 + kClients));

  // Untraced phase (after a short warm-up): the end-to-end numbers.
  ClientPhase untraced;
  {
    ServerThread server(backend);
    if (!server.error().empty()) {
      std::fprintf(stderr, "server: %s\n", server.error().c_str());
      return 2;
    }
    SpanSink off;
    CountPhase(RunClients(server.port(), pools, &cursors, loaded.stored, false,
                          &off, args.tiny ? 0.05 : kWarmupSeconds),
               report);
    const double seconds = args.trace ? args.seconds / 2 : args.seconds;
    const HostTicks ticks0 = ReadHostTicks();
    untraced = RunClients(server.port(), pools, &cursors, loaded.stored, false,
                          &off, seconds);
    report->Note(StealNote(ticks0, ReadHostTicks()));
    CountPhase(untraced, report);
    ReportE2E(untraced, report);
    report->Info("net.batch_keys_mean", server.Stat("batch_keys.mean"), "keys",
                 static_cast<std::uint64_t>(server.Stat("batches")));
  }
  if (!args.trace) return 0;

  // Traced phase: a fresh server over the timing decorator, traced
  // MultiGets, spans kept in memory and written once at the end.
  TimedBackend timed(backend, &spans);
  ClientPhase traced;
  double batch_connections = 0, protocol_errors = 0;
  {
    ServerThread server(&timed);
    if (!server.error().empty()) {
      std::fprintf(stderr, "server: %s\n", server.error().c_str());
      return 2;
    }
    traced = RunClients(server.port(), pools, &cursors, loaded.stored, true,
                        &spans, args.seconds / 2);
    CountPhase(traced, report);
    batch_connections = server.Stat("batch_connections.mean");
    protocol_errors = server.Stat("protocol_errors");
  }
  const double wall_ns = static_cast<double>(traced.end_ns - traced.start_ns);

  report->Layer("kvs.multiget_ns_per_key", timed.mget.NsPerItem(), "ns/key",
                timed.mget.calls);
  report->Layer("kvs.multiget_keys_per_call",
                static_cast<double>(timed.mget.items) /
                    static_cast<double>(std::max<std::uint64_t>(1, timed.mget.calls)),
                "keys/call", timed.mget.calls);
  report->Layer("kvs.busy_share", (timed.mget.busy_ns + timed.set.busy_ns) / wall_ns,
                "ratio", timed.mget.calls + timed.set.calls);
  report->Layer("kvs.hit_ratio",
                static_cast<double>(timed.mget.ok) /
                    static_cast<double>(std::max<std::uint64_t>(1, timed.mget.items)),
                "ratio", timed.mget.items);
  if (timed.set.calls > 0) {
    std::vector<double> set_us;
    for (const double ns : timed.set.latency_ns) set_us.push_back(ns / 1e3);
    report->Layer("kvs.set_p50_us", Percentile(&set_us, 50), "us",
                  set_us.size());
    report->Layer("kvs.set_p99_us", Percentile(&set_us, 99), "us",
                  set_us.size());
  }

  // net: server residency and what of it the backend calls do not cover.
  std::vector<double> residency = traced.residency_us;
  report->Layer("net.residency_p50_us", Percentile(&residency, 50), "us",
                residency.size());
  report->Layer("net.residency_p99_us", Percentile(&residency, 99), "us",
                residency.size());
  double self_us = 0;
  for (const auto& [rx, tx] : traced.residency_span_us) {
    self_us += (tx - rx) - Covered(timed.calls_us, rx, tx);
  }
  report->Layer("net.unattributed_us_per_request",
                self_us / static_cast<double>(
                              std::max<std::size_t>(1, residency.size())),
                "us/req", residency.size());
  report->Layer("net.batch_connections_mean", batch_connections, "conns",
                timed.mget.calls);
  report->Layer("net.protocol_errors", protocol_errors, "count", 1);
  std::vector<double> rtt_rest = traced.rtt_minus_residency_us;
  report->Layer("client.rtt_minus_residency_p50_us", Percentile(&rtt_rest, 50),
                "us", rtt_rest.size());
  report->Layer("trace.overhead_ratio",
                traced.KeysPerSecond() / untraced.KeysPerSecond(), "ratio",
                traced.mget_reqs);

  // Standalone replay: the batches the server handed the backend, straight
  // into MultiGet with no server around.
  LayerTimer standalone;
  {
    std::vector<std::string_view> keys, vals;
    std::vector<std::uint8_t> found;
    std::vector<std::uint64_t> handles;
    std::size_t off = 0;
    for (const std::size_t n : timed.replay_batches) {
      keys.clear();
      for (std::size_t i = 0; i < n; ++i, off += kKeySize) {
        keys.push_back(std::string_view(timed.replay_keys).substr(off, kKeySize));
      }
      const std::uint64_t t0 = NowNs();
      backend->MultiGet(keys, &vals, &found, &handles);
      standalone.Add(n, static_cast<double>(NowNs() - t0));
    }
  }
  report->Layer("kvs.standalone_multiget_ns_per_key", standalone.NsPerItem(),
                "ns/key", standalone.calls);

  // simd: the backend's kernel on a plain table of the same index size, at
  // the batch size the server produced.
  if (spec.simd) {
    const auto* simd_backend = static_cast<simdht::SimdBackend*>(
        loaded.backend.get());
    const std::size_t batch = static_cast<std::size_t>(
        std::max<double>(1, std::round(static_cast<double>(timed.mget.items) /
                                       std::max<std::uint64_t>(1, timed.mget.calls))));
    const SimdReference ref = MeasureSimdReference(
        simd_backend->kernel().name, EntriesFor(spec), spec.items, batch,
        args.tiny ? 0.05 : 0.5, args.seed);
    report->Attempt(ref.probe.items + ref.kernel.items);
    report->Fail(ref.wrong, "reference probe returned a wrong value");
    report->Layer("simd.probe_ns_per_key", ref.probe.NsPerItem(), "ns/key",
                  ref.probe.calls);
    report->Layer("simd.kernel_ns_per_key", ref.kernel.NsPerItem(), "ns/key",
                  ref.kernel.calls);
    report->Layer("kvs.unattributed_ns_per_key",
                  standalone.NsPerItem() - ref.probe.NsPerItem(), "ns/key",
                  standalone.calls);
  }
  return 0;
}

}  // namespace bench
