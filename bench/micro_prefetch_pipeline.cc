// Prefetch-pipeline microbench: direct kernel calls vs the group/AMAC
// software-prefetch schedules, swept over table size x batch size x
// schedule.
//
// The crossover the pipeline is built for: once the table outgrows the
// last-level cache, every probe misses DRAM and lookup throughput is
// latency-bound. Prefetching candidate buckets ahead of the compare loop
// overlaps those misses; on cache-resident tables it is pure overhead,
// which is why the fused AMAC path skips tables that fit the core's L2.
// Batches of 96 keys are the KVS Multi-Get size, 4096 a bulk probe.
// Single-threaded on purpose — memory-level parallelism per core is
// exactly what the schedule changes.
//
// --check turns the run into a regression gate (used by scripts/check.sh
// and CI): at batch 96, the widest horizontal kernel under amac:4x32 (the
// fused interleave) must be >= 1.5x direct on the 64 MiB table and within
// 10 % of direct on an L2-resident one. Both ratios are medians over
// rounds that alternate the two schedules, so host noise hits both alike.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "common/timer.h"
#include "core/workload.h"
#include "ht/cuckoo_table.h"
#include "ht/table_builder.h"
#include "simd/pipeline.h"

using namespace simdht;
using namespace simdht::bench;

namespace {

double MeasureMlps(const KernelInfo& kernel, const TableView& view,
                   const std::vector<std::uint32_t>& queries,
                   const PipelineConfig& config, unsigned repeats,
                   std::size_t batch, const PerfOptions& perf,
                   MeasuredKernel* perf_row) {
  std::vector<std::uint32_t> vals(queries.size());
  std::vector<std::uint8_t> found(queries.size());
  RunningStat stat;
  for (unsigned rep = 0; rep < repeats; ++rep) {
    CounterGroup counters(perf.enabled
                              ? (perf.events.empty() ? DefaultPerfEvents()
                                                     : perf.events)
                              : std::vector<PerfEvent>{});
    if (perf.enabled) counters.Start();
    Timer t;
    for (std::size_t off = 0; off < queries.size(); off += batch) {
      const std::size_t chunk = std::min(batch, queries.size() - off);
      PipelinedLookup(kernel, view,
                      ProbeBatch::Of(queries.data() + off, vals.data() + off,
                                     found.data() + off, chunk),
                      config);
    }
    stat.Add(static_cast<double>(queries.size()) / t.ElapsedSeconds() / 1e6);
    if (perf.enabled) {
      perf_row->perf.Accumulate(counters.Stop());
      perf_row->perf_lookups += queries.size();
    }
  }
  perf_row->perf_collected = perf.enabled && perf_row->perf.valid_mask != 0;
  return stat.mean();
}

// Median over `rounds` of direct time / `config` time, each round one
// pass over `queries` per schedule, alternating which goes first.
double MedianSpeedup(const KernelInfo& kernel, const TableView& view,
                     const std::vector<std::uint32_t>& queries,
                     const PipelineConfig& config, std::size_t batch,
                     unsigned rounds) {
  std::vector<std::uint32_t> vals(queries.size());
  std::vector<std::uint8_t> found(queries.size());
  const auto pass_seconds = [&](const PipelineConfig& schedule) {
    Timer t;
    for (std::size_t off = 0; off < queries.size(); off += batch) {
      const std::size_t chunk = std::min(batch, queries.size() - off);
      PipelinedLookup(kernel, view,
                      ProbeBatch::Of(queries.data() + off, vals.data() + off,
                                     found.data() + off, chunk),
                      schedule);
    }
    return t.ElapsedSeconds();
  };
  const PipelineConfig direct{PrefetchPolicy::kNone, 0, 0};
  std::vector<double> ratios;
  for (unsigned r = 0; r < rounds; ++r) {
    double direct_s, config_s;
    if (r % 2 == 0) {
      direct_s = pass_seconds(direct);
      config_s = pass_seconds(config);
    } else {
      config_s = pass_seconds(config);
      direct_s = pass_seconds(direct);
    }
    ratios.push_back(direct_s / config_s);
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = ParseBenchOptions(argc, argv);
  PrintHeader("Prefetch pipeline: table size x schedule sweep", opt);
  ReportSession session(opt, "Prefetch pipeline: size x schedule sweep");

  bool check = false;
  for (const auto& [name, value] : opt.raw_flags) {
    if (name == "check") check = true;
  }

  // An L2-resident table (half the core's L2, as a power of two) joins
  // every sweep: the size where the fused path must cost nothing.
  std::uint64_t l2_resident = 1;
  while (l2_resident * 2 <= CoreL2Bytes() / 2) l2_resident *= 2;
  constexpr std::uint64_t kDramBytes = std::uint64_t{64} << 20;
  std::vector<std::uint64_t> sizes = {1 << 20, 16 << 20, kDramBytes,
                                      256 << 20};
  if (opt.quick) sizes = {4 << 20, kDramBytes};
  if (std::find(sizes.begin(), sizes.end(), l2_resident) == sizes.end()) {
    sizes.insert(sizes.begin(), l2_resident);
  }

  const std::size_t queries =
      opt.queries_per_thread ? opt.queries_per_thread
                             : (opt.quick ? (1u << 20) : (1u << 22));
  const unsigned repeats = opt.repeats ? opt.repeats : (opt.quick ? 3 : 5);
  // Keys handed to one PipelinedLookup: a KVS Multi-Get, a bulk probe.
  constexpr std::size_t kMultiGetBatch = 96;
  const std::size_t batches[] = {kMultiGetBatch, 4096};
  const PipelineConfig fused{PrefetchPolicy::kAmac, 32, 4};

  const PipelineConfig schedules[] = {
      {PrefetchPolicy::kNone, 0, 0},     {PrefetchPolicy::kGroup, 8, 1},
      {PrefetchPolicy::kGroup, 32, 1},   {PrefetchPolicy::kGroup, 128, 1},
      {PrefetchPolicy::kAmac, 16, 2},    {PrefetchPolicy::kAmac, 32, 4},
  };

  // The paper's BCHT representative; scalar twin + the widest horizontal
  // kernel this CPU supports.
  const LayoutSpec layout = Layout(2, 4);
  std::vector<const KernelInfo*> kernels = {
      KernelRegistry::Get().Scalar(layout)};
  const KernelInfo* widest = nullptr;
  for (const KernelInfo* k : KernelRegistry::Get().Find(
           KernelQuery{layout, Approach::kHorizontal})) {
    if (widest == nullptr || k->width_bits > widest->width_bits) widest = k;
  }
  if (widest != nullptr) kernels.push_back(widest);
  double dram_speedup = 0, l2_speedup = 0;  // --check: fused vs direct

  std::vector<std::string> headers = {"HT size", "kernel", "batch",
                                      "schedule", "Mlookups/s", "vs direct"};
  AppendPerfColumns(opt, &headers);
  TablePrinter table(std::move(headers));
  for (const std::uint64_t bytes : sizes) {
    auto tbl = std::make_unique<CuckooTable32>(
        layout.ways, layout.slots, BucketsForBytes(layout, bytes),
        layout.bucket_layout, opt.seed);
    auto build = FillToLoadFactor(tbl.get(), 0.9, opt.seed + 1);
    auto misses = UniqueRandomKeys<std::uint32_t>(
        std::max<std::size_t>(1024, build.inserted_keys.size() / 8),
        opt.seed + 2, &build.inserted_keys);
    WorkloadConfig wc;
    wc.pattern = AccessPattern::kUniform;
    wc.hit_rate = 0.9;
    wc.num_queries = queries;
    wc.seed = opt.seed + 3;
    const auto probe_stream =
        GenerateQueries(build.inserted_keys, misses, wc);
    const TableView view = tbl->view();

    for (const KernelInfo* kernel : kernels) {
      if (kernel == nullptr) continue;
      for (const std::size_t batch : batches) {
        double direct_mlps = 0;
        for (const PipelineConfig& schedule : schedules) {
          MeasuredKernel perf_row;  // carries only the perf aggregate here
          const double mlps =
              MeasureMlps(*kernel, view, probe_stream, schedule, repeats,
                          batch, opt.perf, &perf_row);
          if (schedule.policy == PrefetchPolicy::kNone) direct_mlps = mlps;
          session.AddRow(
              kernel->name,
              {{"ht_size", std::to_string(bytes)},
               {"batch", std::to_string(batch)},
               {"schedule", schedule.Describe()}},
              {{"mlps", ReportSession::Stat(mlps)},
               {"vs_direct",
                ReportSession::Stat(
                    direct_mlps > 0 ? mlps / direct_mlps : 1.0)}});
          std::vector<std::string> row = {
              HumanBytes(static_cast<double>(bytes)), kernel->name,
              std::to_string(batch), schedule.Describe(),
              TablePrinter::Fmt(mlps, 1),
              schedule.policy == PrefetchPolicy::kNone
                  ? "1.00"
                  : TablePrinter::Fmt(mlps / direct_mlps, 2)};
          AppendPerfCells(opt, perf_row, &row);
          table.AddRow(std::move(row));
        }
      }
    }
    if (check && widest != nullptr) {
      const double speedup = MedianSpeedup(*widest, view, probe_stream,
                                           fused, kMultiGetBatch, 7);
      if (bytes == kDramBytes) dram_speedup = speedup;
      if (bytes == l2_resident) l2_speedup = speedup;
    }
  }
  Emit(table, opt);
  PrintPerfFooter(opt);
  int rc = session.Finish();
  if (!check) return rc;
  if (widest == nullptr) {
    std::fprintf(stderr, "CHECK FAILED: no horizontal kernel on this CPU\n");
    return 1;
  }
  const std::string what = widest->name + " " + fused.Describe() +
                           " at batch " + std::to_string(kMultiGetBatch);
  const std::string dram = HumanBytes(static_cast<double>(kDramBytes));
  const std::string l2 = HumanBytes(static_cast<double>(l2_resident));
  if (dram_speedup < 1.5) {
    std::fprintf(stderr, "CHECK FAILED: %s on %s is %.2fx direct (< 1.5x)\n",
                 what.c_str(), dram.c_str(), dram_speedup);
    rc = 1;
  }
  if (l2_speedup < 0.9) {
    std::fprintf(stderr,
                 "CHECK FAILED: %s on the L2-resident %s table is %.2fx "
                 "direct (more than 10 %% slower)\n",
                 what.c_str(), l2.c_str(), l2_speedup);
    rc = 1;
  }
  if (rc == 0 && !opt.csv) {
    std::printf("\ncheck: %s: %.2fx direct on %s, %.2fx on the "
                "L2-resident %s — OK\n",
                what.c_str(), dram_speedup, dram.c_str(), l2_speedup,
                l2.c_str());
  }
  return rc;
}
