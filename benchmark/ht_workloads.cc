// Library-level workloads: SimdHashTable<u32,u32> with default Options,
// driven through its public batch API from one pinned thread.
//
//   ht-get-dram  capacity 60 M keys (~512 MiB), uniform BatchGet of 1024
//                keys, 90 % hits.
//   ht-rw-l2     capacity 100 k keys (~1 MiB), Zipf 0.99, YCSB-A: 256-op
//                batches split into one BatchGet and one BatchUpdate.
//
// Inputs are generated from the seed before any clock starts. Keys are a
// bijection of ids (Mix32(id ^ salt)), so hit and miss ids come from
// disjoint ranges and a miss is only ever expected for an absent key.
#include <malloc.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/zipf.h"
#include "simd/kernel.h"
#include "simd/pipeline.h"
#include "simd/simd_hash_table.h"
#include "workloads.h"

namespace bench {

namespace {

using Table = simdht::SimdHashTable<std::uint32_t, std::uint32_t>;

// Long enough for the pinned core to reach its steady speed after set-up.
constexpr double kWarmupSeconds = 2.0;
// Tables ht-rw-l2 serves from, one per window in turn (see RunRwL2).
constexpr std::size_t kTables = 16;

// Bit 31 set: the one id that Mix32 sends to the empty-slot key 0 is
// `salt` itself, which lies outside every id range used (< 2^31).
std::uint32_t SaltFor(std::uint64_t seed) {
  return 0x80000000u | (Mix32(static_cast<std::uint32_t>(seed) ^ 0x2545f491u) &
                        0x7fffffffu);
}

std::uint32_t KeyOf(std::uint64_t id, std::uint32_t salt) {
  return Mix32(static_cast<std::uint32_t>(id) ^ salt);
}

// The value stored at load time; updates replace it (see ht-rw-l2).
std::uint32_t ValueOf(std::uint32_t key) { return Mix32(key ^ 0x5bd1e995u); }

struct Built {
  std::unique_ptr<Table> table;
  double setup_s = 0;
  double rss_growth = 0;
  LayerTimer insert;
  std::uint64_t direct_inserts = 0;
};

// Constructs a table of `capacity` and loads ids [0, keys) through
// BatchInsert in 64 Ki chunks. Only construction and the insert calls are
// timed, in thread CPU time; filling each chunk's key/value arrays is not.
Built BuildTable(std::uint64_t capacity, std::uint64_t keys,
                 std::uint32_t salt, SpanSink* spans, Report* report) {
  Built b;
  const std::uint64_t rss0 = ResidentBytes();
  const double us0 = SpanSink::NowUs();
  const std::uint64_t t0 = ThreadCpuNs();
  Table::Options options;
  options.capacity = capacity;
  b.table = std::make_unique<Table>(options);
  double setup_ns = static_cast<double>(ThreadCpuNs() - t0);
  spans->Span("ht", "construct", us0, SpanSink::NowUs(), 0, 0);

  constexpr std::size_t kChunk = 1 << 16;
  std::vector<std::uint32_t> k(kChunk), v(kChunk);
  std::vector<std::uint8_t> ok(kChunk);
  std::uint64_t failed = 0;
  for (std::uint64_t start = 0; start < keys; start += kChunk) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, keys - start));
    for (std::size_t i = 0; i < n; ++i) {
      k[i] = KeyOf(start + i, salt);
      v[i] = ValueOf(k[i]);
    }
    const double s_us = SpanSink::NowUs();
    const std::uint64_t t = ThreadCpuNs();
    b.table->BatchInsert(k.data(), v.data(), ok.data(), n);
    const double ns = static_cast<double>(ThreadCpuNs() - t);
    spans->Span("ht", "BatchInsert", s_us, SpanSink::NowUs(), 0,
                static_cast<double>(n));
    b.insert.Add(n, ns);
    setup_ns += ns;
    for (std::size_t i = 0; i < n; ++i) failed += ok[i] == 0;
  }
  b.setup_s = setup_ns / 1e9;
  b.rss_growth = static_cast<double>(ResidentBytes() - rss0);
  b.direct_inserts = b.table->table().insert_stats().direct_inserts;
  report->Attempt(keys);
  report->Fail(failed, "BatchInsert rejected a key during load");
  return b;
}

// Builds the table repeatedly and reports the median set-up time and
// memory. The last `keep` builds are kept, each in memory of its own.
std::vector<Built> SetUp(std::uint64_t capacity, std::uint64_t keys,
                         std::uint32_t salt, std::size_t keep,
                         SpanSink* spans, Report* report) {
  std::vector<double> setup_s, rss;
  std::vector<Built> kept;
  while (MoreSetUps(setup_s) || setup_s.size() < keep) {
    if (kept.size() == keep) kept.erase(kept.begin());
    // Hand the freed memory back so every repetition faults its memory in
    // afresh, as the first one does, and its RSS growth is comparable.
    malloc_trim(0);
    kept.push_back(BuildTable(capacity, keys, salt, spans, report));
    setup_s.push_back(kept.back().setup_s);
    rss.push_back(kept.back().rss_growth);
  }
  const Built& last = kept.back();
  report->EndToEnd("setup_s", Median(setup_s), "s", setup_s.size());
  report->EndToEnd("mem_bytes_per_key",
                   Median(rss) / static_cast<double>(last.table->size()),
                   "B/key", rss.size());
  report->Layer("ht.insert_ns_per_key", last.insert.NsPerItem(), "ns/key",
                last.insert.calls);
  report->Layer("ht.insert_direct_ratio",
                static_cast<double>(last.direct_inserts) /
                    static_cast<double>(std::max<std::uint64_t>(1, keys)),
                "ratio", keys);
  report->Layer("ht.slots_per_key",
                static_cast<double>(last.table->capacity()) /
                    static_cast<double>(last.table->size()),
                "slots/key", 1);
  report->Note("table: " + std::to_string(last.table->capacity()) +
               " slots, " + std::to_string(last.table->size()) +
               " keys, kernel " + last.table->kernel_name() + ", " +
               std::to_string(kept.size()) + " kept");
  return kept;
}

// What one measured phase saw: every table call, per layer.
struct TablePhase {
  LayerTimer get;     // Table::BatchGet
  LayerTimer probe;   // PipelinedLookup with the table's pipeline
  LayerTimer kernel;  // PipelinedLookup without prefetch
  LayerTimer update;  // Table::BatchUpdate
  std::uint64_t found = 0;
  std::uint64_t probed = 0;
  // Every request: a BatchGet call (ht-get-dram), or one 256-op YCSB batch,
  // its BatchGet and BatchUpdate calls together (ht-rw-l2).
  std::vector<Sample> req;
  std::uint64_t start_ns = 0, end_ns = 0;

  void Begin() {
    get.keep_latency = update.keep_latency = true;
    start_ns = NowNs();
  }
};

// The three ways a traced phase sends a read batch, rotated per batch so
// each sees cold lines the others did not warm.
enum class ReadVia { kBatchGet, kProbe, kKernel };

class Reader {
 public:
  Reader(const Table& table, SpanSink* spans)
      : table_(table), spans_(spans),
        kernel_(simdht::KernelRegistry::Get().ByName(table.kernel_name())) {
    probe_config_ = Table::Options().pipeline;
    kernel_config_ = probe_config_;
    kernel_config_.policy = simdht::PrefetchPolicy::kNone;
  }

  // Looks up keys[0..n), times the call into the layer `via` names and
  // returns its duration in nanoseconds.
  double Read(ReadVia via, const std::uint32_t* keys, std::size_t n,
                     std::uint32_t* vals, std::uint8_t* found,
                     TablePhase* phase) {
    const double s_us = spans_->enabled() ? SpanSink::NowUs() : 0;
    const std::uint64_t t0 = NowNs();
    std::uint64_t hits = 0;
    if (via == ReadVia::kBatchGet) {
      hits = table_.BatchGet(keys, n, vals, found);
    } else {
      hits = simdht::PipelinedLookup(
          *kernel_, table_.table().view(),
          simdht::ProbeBatch::Of(keys, vals, found, n),
          via == ReadVia::kProbe ? probe_config_ : kernel_config_);
    }
    const std::uint64_t t1 = NowNs();
    const double ns = static_cast<double>(t1 - t0);
    switch (via) {
      case ReadVia::kBatchGet:
        phase->get.Add(n, ns);
        phase->found += hits;
        phase->probed += n;
        spans_->Span("ht", "BatchGet", s_us, SpanSink::NowUs(), 0,
                     static_cast<double>(n));
        break;
      case ReadVia::kProbe:
        phase->probe.Add(n, ns);
        spans_->Span("simd", "PipelinedLookup", s_us, SpanSink::NowUs(), 0,
                     static_cast<double>(n));
        break;
      case ReadVia::kKernel:
        phase->kernel.Add(n, ns);
        spans_->Span("simd", "kernel", s_us, SpanSink::NowUs(), 0,
                     static_cast<double>(n));
        break;
    }
    return ns;
  }

 private:
  const Table& table_;
  SpanSink* spans_;
  const simdht::KernelInfo* kernel_;
  simdht::PipelineConfig probe_config_;
  simdht::PipelineConfig kernel_config_;
};

// ops_per_s counts keys per second of time inside the table calls, so the
// benchmark's own result checks between calls do not dilute it; calls the
// host interrupted are left out (see Summarize).
void ReportE2E(const TablePhase& p, Report* report) {
  const Windowed w = Summarize(p.req, p.start_ns, p.end_ns, kWindowNs, 1);
  report->EndToEnd("ops_per_s", w.items_per_s, "1/s",
                   p.get.items + p.update.items);
  report->EndToEnd("req_p50_us", w.p50_us, "us", w.samples);
  report->EndToEnd("req_p90_us", w.p90_us, "us", w.samples);
  report->Info("req_p99_us", w.p99_us, "us", w.samples);
  report->Info("windows", static_cast<double>(w.windows), "count", w.windows);
  report->Info("requests_interrupted", static_cast<double>(w.interrupted),
               "count", w.samples);
  std::vector<double> g = p.get.latency_ns;
  report->Info("get_p50_us", Percentile(&g, 50) / 1e3, "us", g.size());
  report->Info("get_p99_us", Percentile(&g, 99) / 1e3, "us", g.size());
  if (p.update.calls > 0) {
    std::vector<double> u = p.update.latency_ns;
    report->Info("update_p50_us", Percentile(&u, 50) / 1e3, "us", u.size());
    report->Info("update_p99_us", Percentile(&u, 99) / 1e3, "us", u.size());
  }
}

void ReportLayers(const TablePhase& traced, double untraced_ops_per_ns,
                  Report* report) {
  const double get = traced.get.NsPerItem();
  const double probe = traced.probe.NsPerItem();
  report->Layer("simd.probe_ns_per_key", probe, "ns/key", traced.probe.calls);
  report->Layer("simd.kernel_ns_per_key", traced.kernel.NsPerItem(), "ns/key",
                traced.kernel.calls);
  report->Layer("ht.get_ns_per_key", get, "ns/key", traced.get.calls);
  report->Layer("ht.get_unattributed_ns_per_key", get - probe, "ns/key",
                traced.get.calls);
  report->Layer("ht.hit_ratio",
                static_cast<double>(traced.found) /
                    static_cast<double>(std::max<std::uint64_t>(1, traced.probed)),
                "ratio", traced.probed);
  if (traced.update.calls > 0) {
    report->Layer("ht.update_ns_per_key", traced.update.NsPerItem(), "ns/key",
                  traced.update.calls);
    report->Layer("ht.update_ok_ratio",
                  static_cast<double>(traced.update.ok) /
                      static_cast<double>(traced.update.items),
                  "ratio", traced.update.items);
  }
  // Tracing records spans outside the timed calls, so the ratio shows what
  // span recording costs the table calls themselves (cache disturbance).
  const double traced_rate =
      static_cast<double>(traced.get.items + traced.update.items) /
      (traced.get.busy_ns + traced.update.busy_ns);
  report->Layer("trace.overhead_ratio", traced_rate / untraced_ops_per_ns,
                "ratio", traced.get.calls + traced.update.calls);
}

double OpsPerNs(const TablePhase& p) {
  return static_cast<double>(p.get.items + p.update.items) /
         (p.get.busy_ns + p.update.busy_ns);
}

// ---------------------------------------------------------------- dram ----

int RunGetDram(const Args& args, Report* report) {
  const std::uint64_t capacity = args.tiny ? 60000 : 60000000;
  const std::uint64_t keys = capacity;
  const std::size_t batch = 1024;
  const std::size_t pool = args.tiny ? (1 << 14) : (std::size_t{1} << 23);
  const std::uint32_t salt = SaltFor(args.seed);

  // Query pool: 90 % ids drawn uniformly from [0, keys), 10 % from the
  // absent range [keys, 2 * keys).
  std::vector<std::uint32_t> qkeys(pool);
  std::vector<std::uint8_t> expect(pool);
  simdht::Xoshiro256 rng(args.seed * 0x9e3779b97f4a7c15ull + 1);
  for (std::size_t i = 0; i < pool; ++i) {
    const bool hit = rng.NextDouble() < 0.9;
    const std::uint64_t id = hit ? rng.NextBounded(keys)
                                 : keys + rng.NextBounded(keys);
    qkeys[i] = KeyOf(id, salt);
    expect[i] = hit ? 1 : 0;
  }

  SpanSink spans;
  if (args.trace) spans.Enable(1);
  PinToCpu(CpuForRole(0));
  const std::vector<Built> built =
      SetUp(capacity, keys, salt, 1, &spans, report);
  RankCpus();
  PinToCpu(CpuForRole(0));
  report->Note(CoreMap(1));
  const Table& table = *built.back().table;
  Reader reader(table, &spans);

  std::vector<std::uint32_t> vals(batch);
  std::vector<std::uint8_t> found(batch);
  std::size_t cursor = 0;
  // Runs batches until `seconds` elapse; `rotate` cycles BatchGet, the
  // pipelined probe and the bare kernel.
  const auto run_phase = [&](double seconds, bool rotate, TablePhase* phase) {
    phase->Begin();
    const std::uint64_t deadline =
        NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t b = 0;
    while (NowNs() < deadline) {
      if (cursor + batch > pool) cursor = 0;
      const ReadVia via =
          rotate ? static_cast<ReadVia>(b % 3) : ReadVia::kBatchGet;
      ++b;
      const double ns = reader.Read(via, &qkeys[cursor], batch, vals.data(),
                                    found.data(), phase);
      if (via == ReadVia::kBatchGet) {
        phase->req.push_back({NowNs(), ns, static_cast<std::uint32_t>(batch)});
      }
      std::uint64_t bad = 0;
      for (std::size_t i = 0; i < batch; ++i) {
        const std::uint32_t key = qkeys[cursor + i];
        bad += found[i] != expect[cursor + i] ||
               (found[i] && vals[i] != ValueOf(key));
      }
      report->Attempt(batch);
      report->Fail(bad, "BatchGet returned a wrong value or hit flag");
      cursor += batch;
    }
    phase->end_ns = NowNs();
  };

  TablePhase warm;
  run_phase(args.tiny ? 0.05 : kWarmupSeconds, false, &warm);
  TablePhase untraced;
  const HostTicks ticks0 = ReadHostTicks();
  run_phase(args.trace ? args.seconds / 2 : args.seconds, false, &untraced);
  report->Note(StealNote(ticks0, ReadHostTicks()));
  ReportE2E(untraced, report);
  if (args.trace) {
    TablePhase traced;
    run_phase(args.seconds / 2, true, &traced);
    ReportLayers(traced, OpsPerNs(untraced), report);
  }
  return 0;
}

// ------------------------------------------------------------------ l2 ----

int RunRwL2(const Args& args, Report* report) {
  const std::uint64_t keys = args.tiny ? 1000 : 100000;
  const std::size_t batch = 256;
  const std::size_t pool = args.tiny ? (1 << 14) : (std::size_t{1} << 22);
  const std::uint32_t salt = SaltFor(args.seed);

  // Op pool: Zipf(0.99) ids, half reads and half updates, cut into batches
  // of 256 ops; each batch becomes one BatchGet (its reads) followed by one
  // BatchUpdate (its updates).
  std::vector<std::uint32_t> ids(pool);
  std::vector<std::uint8_t> is_update(pool);
  {
    simdht::Xoshiro256 rng(args.seed * 0x9e3779b97f4a7c15ull + 2);
    const simdht::ZipfGenerator zipf(keys, 0.99);
    const std::uint64_t scramble = rng.NextBounded(keys);
    for (std::size_t i = 0; i < pool; ++i) {
      ids[i] = static_cast<std::uint32_t>(
          ScrambleRank(zipf.Next(&rng), keys, scramble));
      is_update[i] = rng.NextDouble() < 0.5;
    }
  }

  SpanSink spans;
  if (args.trace) spans.Enable(16);
  PinToCpu(CpuForRole(0));
  // Where a 1 MiB table lands in physical memory decides how its lines
  // share the L2's sets: on the sizing host the median call on one
  // placement took up to 20 % longer than on another in the same minute.
  // A phase therefore serves from kTables tables, one per window in turn,
  // so that a run's median spans several placements instead of resting on
  // one.
  std::vector<Built> tables =
      SetUp(keys, keys, salt, args.tiny ? 2 : kTables, &spans, report);
  // For the same reason the worker moves between the three fastest CPUs,
  // one pass over the tables on each in turn: another tenant's load on one
  // CPU (a busy hyperthread sibling on the host, say) lasts longer than a
  // run, and a run pinned to one CPU rested on it.
  RankCpus();
  const int worker_cpus[] = {CpuForRole(0), CpuForRole(1), CpuForRole(2)};
  int cpu = worker_cpus[0];
  PinToCpu(cpu);
  report->Note("core map: worker cpus " + std::to_string(worker_cpus[0]) +
               ", " + std::to_string(worker_cpus[1]) + ", " +
               std::to_string(worker_cpus[2]) + " in turn");
  std::vector<Reader> readers;
  for (const Built& b : tables) readers.emplace_back(*b.table, &spans);

  // Current value of every id in each table: the model BatchGet results are
  // checked against. Update values are a fresh function of (id, version).
  std::vector<std::vector<std::uint32_t>> models(
      tables.size(), std::vector<std::uint32_t>(keys));
  for (std::vector<std::uint32_t>& model : models) {
    for (std::uint64_t id = 0; id < keys; ++id) {
      model[id] = ValueOf(KeyOf(id, salt));
    }
  }
  std::uint32_t version = 0;

  std::vector<std::uint32_t> gk(batch), gv(batch), gid(batch);
  std::vector<std::uint32_t> uk(batch), uv(batch), uid(batch);
  std::vector<std::uint8_t> found(batch), ok(batch);
  std::size_t cursor = 0;
  const auto run_phase = [&](double seconds, bool rotate, TablePhase* phase) {
    phase->Begin();
    const std::uint64_t deadline =
        NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t b = 0;
    for (std::uint64_t now = NowNs(); now < deadline; now = NowNs()) {
      const std::uint64_t window = (now - phase->start_ns) / kWindowNs;
      const std::size_t t = window % tables.size();
      const int want = worker_cpus[window / tables.size() % 3];
      if (want != cpu) {
        cpu = want;
        PinToCpu(cpu);
      }
      Table& table = *tables[t].table;
      std::vector<std::uint32_t>& model = models[t];
      if (cursor + batch > pool) cursor = 0;
      std::size_t ng = 0, nu = 0;
      ++version;
      for (std::size_t i = cursor; i < cursor + batch; ++i) {
        const std::uint32_t key = KeyOf(ids[i], salt);
        if (is_update[i]) {
          uid[nu] = ids[i];
          uk[nu] = key;
          uv[nu] = Mix32(key ^ (version * 0x9e3779b9u));
          ++nu;
        } else {
          gid[ng] = ids[i];
          gk[ng] = key;
          ++ng;
        }
      }
      cursor += batch;
      const ReadVia via =
          rotate ? static_cast<ReadVia>(b % 3) : ReadVia::kBatchGet;
      ++b;
      const double get_ns =
          readers[t].Read(via, gk.data(), ng, gv.data(), found.data(), phase);
      std::uint64_t bad = 0;
      for (std::size_t i = 0; i < ng; ++i) {
        bad += !found[i] || gv[i] != model[gid[i]];
      }

      const double s_us = spans.enabled() ? SpanSink::NowUs() : 0;
      const std::uint64_t t0 = NowNs();
      table.BatchUpdate(uk.data(), uv.data(), ok.data(), nu);
      const std::uint64_t t1 = NowNs();
      const double ns = static_cast<double>(t1 - t0);
      phase->update.Add(nu, ns);
      if (via == ReadVia::kBatchGet) {
        phase->req.push_back(
            {t1, get_ns + ns, static_cast<std::uint32_t>(ng + nu)});
      }
      spans.Span("ht", "BatchUpdate", s_us, SpanSink::NowUs(), 0,
                 static_cast<double>(nu));
      for (std::size_t i = 0; i < nu; ++i) {
        phase->update.ok += ok[i];
        bad += !ok[i];
        model[uid[i]] = uv[i];
      }
      report->Attempt(batch);
      report->Fail(bad, "YCSB-A batch returned a stale/wrong value or a "
                        "failed update");
    }
    phase->end_ns = NowNs();
  };

  TablePhase warm;
  run_phase(args.tiny ? 0.05 : kWarmupSeconds, false, &warm);
  TablePhase untraced;
  const HostTicks ticks0 = ReadHostTicks();
  run_phase(args.trace ? args.seconds / 2 : args.seconds, false, &untraced);
  report->Note(StealNote(ticks0, ReadHostTicks()));
  ReportE2E(untraced, report);
  if (args.trace) {
    TablePhase traced;
    run_phase(args.seconds / 2, true, &traced);
    ReportLayers(traced, OpsPerNs(untraced), report);
  }
  return 0;
}

}  // namespace

SimdReference MeasureSimdReference(const std::string& kernel_name,
                                   std::uint64_t capacity, std::uint64_t keys,
                                   std::size_t batch, double seconds,
                                   std::uint64_t seed) {
  const std::uint32_t salt = SaltFor(seed ^ 0x51d);
  Table::Options options;
  options.capacity = capacity;
  options.kernel_name = kernel_name;
  Table table(options);
  constexpr std::size_t kChunk = 1 << 16;
  std::vector<std::uint32_t> k(kChunk), v(kChunk);
  for (std::uint64_t start = 0; start < keys; start += kChunk) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, keys - start));
    for (std::size_t i = 0; i < n; ++i) {
      k[i] = KeyOf(start + i, salt);
      v[i] = ValueOf(k[i]);
    }
    table.BatchInsert(k.data(), v.data(), nullptr, n);
  }

  const std::size_t pool = std::max<std::size_t>(batch * 64, 1 << 20);
  std::vector<std::uint32_t> qkeys(pool);
  std::vector<std::uint8_t> expect(pool);
  simdht::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + 3);
  for (std::size_t i = 0; i < pool; ++i) {
    const bool hit = rng.NextDouble() < 0.95;
    qkeys[i] = KeyOf(hit ? rng.NextBounded(keys) : keys + rng.NextBounded(keys),
                     salt);
    expect[i] = hit ? 1 : 0;
  }

  SpanSink no_spans;
  Reader reader(table, &no_spans);
  TablePhase phase;
  std::vector<std::uint32_t> vals(batch);
  std::vector<std::uint8_t> found(batch);
  SimdReference out;
  std::size_t cursor = 0;
  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::uint64_t b = 0; NowNs() < deadline; ++b) {
    if (cursor + batch > pool) cursor = 0;
    reader.Read(b % 2 == 0 ? ReadVia::kProbe : ReadVia::kKernel,
                &qkeys[cursor], batch, vals.data(), found.data(), &phase);
    for (std::size_t i = 0; i < batch; ++i) {
      out.wrong += found[i] != expect[cursor + i] ||
                   (found[i] && vals[i] != ValueOf(qkeys[cursor + i]));
    }
    cursor += batch;
  }
  out.probe = phase.probe;
  out.kernel = phase.kernel;
  return out;
}

int RunHtWorkload(const Args& args, Report* report) {
  if (args.workload == "ht-get-dram") return RunGetDram(args, report);
  return RunRwL2(args, report);
}

}  // namespace bench
