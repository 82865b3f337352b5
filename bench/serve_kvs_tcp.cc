// Serving-transport study: simulated channel vs real TCP sockets.
//
// The fig11 bench measures the KVS through the simulated transport
// (kvs/transport.h's in-process Channel with a wire-delay model). This
// binary runs the same Multi-Get workload through a selectable transport:
//
//   --transport=sim   RunMemslap over the simulated Channel — the exact
//                     code path fig11 uses, kept bit-compatible so the two
//                     binaries stay comparable.
//   --transport=tcp   in-process KvTcpServer cluster on loopback sockets,
//                     driven by the open-loop RunTcpLoadgen harness. Extra
//                     columns report the achieved rate and the
//                     cross-connection batch occupancy the epoll server
//                     reached (STATS batch_connections.max).
//
// TCP-mode knobs: --servers=N (cluster size), --conns=N (driver threads),
// --qps=R + --arrival=uniform|poisson|closed (open-loop rate), --mget=K.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "kvs/loadgen.h"
#include "kvs/memc3_backend.h"
#include "kvs/simd_backend.h"
#include "net/kv_tcp_server.h"
#include "net/open_loop.h"

using namespace simdht;
using namespace simdht::bench;

namespace {

struct Candidate {
  const char* label;
  std::unique_ptr<KvBackend> (*make)(std::uint64_t, std::size_t);
  SimdLevel needs;
};

const Candidate kCandidates[] = {
    {"MemC3 (non-SIMD baseline)",
     [](std::uint64_t e, std::size_t m) -> std::unique_ptr<KvBackend> {
       return std::make_unique<Memc3Backend>(e, m);
     },
     SimdLevel::kScalar},
    {"Bucket-Cuckoo-Hor(AVX-256)",
     [](std::uint64_t e, std::size_t m) -> std::unique_ptr<KvBackend> {
       return std::make_unique<SimdBackend>(
           SimdBackend::BucketCuckooHorAvx2(), e, m);
     },
     SimdLevel::kAvx2},
    {"Cuckoo-Ver(AVX-512)",
     [](std::uint64_t e, std::size_t m) -> std::unique_ptr<KvBackend> {
       return std::make_unique<SimdBackend>(
           SimdBackend::CuckooVerAvx512(), e, m);
     },
     SimdLevel::kAvx512},
};

double StatValue(const StatsPairs& stats, const std::string& name) {
  for (const auto& [key, value] : stats) {
    if (key == name) return value;
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const BenchOptions opt = ParseBenchOptions(argc, argv);
  const std::string transport = flags.GetString("transport", "sim");
  if (transport != "sim" && transport != "tcp") {
    std::fprintf(stderr, "unknown --transport '%s' (want sim|tcp)\n",
                 transport.c_str());
    return 2;
  }
  const unsigned servers =
      static_cast<unsigned>(flags.GetInt("servers", 2));
  const unsigned conns = static_cast<unsigned>(flags.GetInt("conns", 4));
  const unsigned mget = static_cast<unsigned>(flags.GetInt("mget", 16));
  const double qps = flags.GetDouble("qps", 20000.0);
  const std::string arrival_name = flags.GetString("arrival", "uniform");
  ArrivalMode arrival = ArrivalMode::kUniform;
  if (!ParseArrivalMode(arrival_name, &arrival)) {
    std::fprintf(stderr, "unknown --arrival '%s'\n", arrival_name.c_str());
    return 2;
  }

  PrintHeader("KVS serving transport: simulated channel vs real TCP", opt);
  ReportSession session(opt, "KVS serving transport comparison");

  const std::size_t num_keys = opt.quick ? 100000 : 2000000;
  const std::size_t requests_per_client = opt.quick ? 1500 : 8000;
  const std::uint64_t ht_entries = num_keys * 2;
  const std::size_t mem_limit = std::size_t{2} << 30;

  TablePrinter table({"transport", "backend", "MGet mean us", "p50 us",
                      "p99 us", "p999 us", "achieved qps", "batch occ max"});

  for (const Candidate& candidate : kCandidates) {
    if (!GetCpuFeatures().Supports(candidate.needs)) continue;

    if (transport == "sim") {
      // Bit-compatible with fig11: same RunMemslap driver, same simulated
      // wire model, closed-loop paper protocol.
      MemslapConfig config;
      config.clients = opt.threads ? opt.threads : 2;
      config.num_keys = num_keys;
      config.requests_per_client = requests_per_client;
      config.mget_size = mget;
      config.seed = opt.seed;
      auto backend = candidate.make(ht_entries, mem_limit);
      const MemslapResult r = RunMemslap(backend.get(), config);
      table.AddRow({"sim", candidate.label,
                    TablePrinter::Fmt(r.mget_mean_us, 1),
                    TablePrinter::Fmt(r.mget_p50_us, 1),
                    TablePrinter::Fmt(r.mget_p99_us, 1),
                    TablePrinter::Fmt(r.mget_p999_us, 1),
                    TablePrinter::Fmt(r.client_mgets_per_sec, 0), "-"});
      session.AddRow(
          candidate.label,
          {{"transport", "sim"}, {"mget", std::to_string(mget)}},
          {{"mget_mean_us", ReportSession::Stat(r.mget_mean_us)},
           {"mget_p50_us", ReportSession::Stat(r.mget_p50_us)},
           {"mget_p99_us", ReportSession::Stat(r.mget_p99_us)},
           {"mget_p999_us", ReportSession::Stat(r.mget_p999_us)},
           {"achieved_qps", ReportSession::Stat(r.client_mgets_per_sec)},
           {"server_get_mops", ReportSession::Stat(r.server_get_mops)}});
      continue;
    }

    // --transport=tcp: an in-process loopback cluster under the open-loop
    // harness. One backend per server (the cluster client shards keys).
    std::vector<std::unique_ptr<KvBackend>> backends;
    std::vector<std::unique_ptr<KvTcpServer>> cluster;
    TcpLoadgenConfig config;
    bool up = true;
    for (unsigned s = 0; s < servers; ++s) {
      backends.push_back(candidate.make(ht_entries / servers + 1,
                                        mem_limit / servers));
      cluster.push_back(
          std::make_unique<KvTcpServer>(backends.back().get()));
      std::string err;
      if (!cluster.back()->StartBackground(&err)) {
        std::fprintf(stderr, "server %u failed to start: %s\n", s,
                     err.c_str());
        up = false;
        break;
      }
      config.servers.push_back({"127.0.0.1", cluster.back()->port()});
    }
    TcpLoadgenResult r;
    std::string err;
    bool ok = false;
    if (up) {
      config.clients = conns;
      config.num_keys = num_keys;
      config.requests_per_client =
          requests_per_client / (conns ? conns : 1) + 1;
      config.mget_size = mget;
      config.arrival = arrival;
      config.target_qps = qps;
      config.seed = opt.seed;
      ok = RunTcpLoadgen(config, &r, &err);
      if (!ok) std::fprintf(stderr, "loadgen: %s\n", err.c_str());
    }
    for (auto& server : cluster) {
      server->Stop();
      server->Join();
    }
    if (!ok) continue;

    double occ_max = 0;
    // Server-phase tails across the cluster (worst server). Metric names
    // carry an explicit _ns suffix: the wire snapshot serves nanoseconds
    // (it declares units.phase_ns=1), never raw TSC cycles — rows from
    // different machines stay comparable without knowing either TSC rate.
    double probe_p50_ns = 0, probe_p99_ns = 0, probe_p999_ns = 0;
    double copy_p99_ns = 0, transport_p99_ns = 0;
    for (const StatsPairs& stats : r.server_stats) {
      const double m = StatValue(stats, "batch_connections.max");
      if (m > occ_max) occ_max = m;
      probe_p50_ns =
          std::max(probe_p50_ns, StatValue(stats, "index_probe_ns.p50"));
      probe_p99_ns =
          std::max(probe_p99_ns, StatValue(stats, "index_probe_ns.p99"));
      probe_p999_ns =
          std::max(probe_p999_ns, StatValue(stats, "index_probe_ns.p999"));
      copy_p99_ns =
          std::max(copy_p99_ns, StatValue(stats, "value_copy_ns.p99"));
      transport_p99_ns =
          std::max(transport_p99_ns, StatValue(stats, "transport_ns.p99"));
    }
    table.AddRow({"tcp", candidate.label,
                  TablePrinter::Fmt(r.mget_mean_us, 1),
                  TablePrinter::Fmt(r.mget_p50_us, 1),
                  TablePrinter::Fmt(r.mget_p99_us, 1),
                  TablePrinter::Fmt(r.mget_p999_us, 1),
                  TablePrinter::Fmt(r.achieved_qps, 0),
                  TablePrinter::Fmt(occ_max, 0)});
    session.AddRow(
        candidate.label,
        {{"transport", "tcp"},
         {"mget", std::to_string(mget)},
         {"servers", std::to_string(servers)},
         {"arrival", ArrivalModeName(arrival)}},
        {{"mget_mean_us", ReportSession::Stat(r.mget_mean_us)},
         {"mget_p50_us", ReportSession::Stat(r.mget_p50_us)},
         {"mget_p99_us", ReportSession::Stat(r.mget_p99_us)},
         {"mget_p999_us", ReportSession::Stat(r.mget_p999_us)},
         {"intended_qps", ReportSession::Stat(r.intended_qps)},
         {"achieved_qps", ReportSession::Stat(r.achieved_qps)},
         {"max_send_lag_us", ReportSession::Stat(r.max_send_lag_us)},
         {"key_errors",
          ReportSession::Stat(static_cast<double>(r.key_errors))},
         {"batch_connections_max", ReportSession::Stat(occ_max)},
         {"server_index_probe_p50_ns", ReportSession::Stat(probe_p50_ns)},
         {"server_index_probe_p99_ns", ReportSession::Stat(probe_p99_ns)},
         {"server_index_probe_p999_ns",
          ReportSession::Stat(probe_p999_ns)},
         {"server_value_copy_p99_ns", ReportSession::Stat(copy_p99_ns)},
         {"server_transport_p99_ns",
          ReportSession::Stat(transport_p99_ns)}});
  }

  if (!opt.csv) {
    std::printf("transport=%s", transport.c_str());
    if (transport == "tcp") {
      std::printf("  servers=%u  conns=%u  arrival=%s  qps=%.0f", servers,
                  conns, ArrivalModeName(arrival), qps);
    }
    std::printf("\n");
  }
  Emit(table, opt);
  return session.Finish();
}
