// The repo benchmark: one command, four workloads, from the table to TCP.
//
//   simdht_repo_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Untraced runs (--trace 0) measure the end-to-end metrics. Traced runs
// (--trace 1) time the calls into each layer from this benchmark's own code,
// record spans into obs::Timeline and write them to --out-dir at the end.
// The last line of standard output is the JSON result; the exit code is 0
// only when every checked value was correct.
#include <sys/stat.h>

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace {

// Every per-layer metric, in report order. A traced run emits all of them;
// a layer or operation the workload never reaches reads 0.
const struct {
  const char* name;
  const char* unit;
} kLayerMetrics[] = {
    {"simd.probe_ns_per_key", "ns/key"},
    {"simd.kernel_ns_per_key", "ns/key"},
    {"ht.get_ns_per_key", "ns/key"},
    {"ht.get_unattributed_ns_per_key", "ns/key"},
    {"ht.update_ns_per_key", "ns/key"},
    {"ht.update_ok_ratio", "ratio"},
    {"ht.insert_ns_per_key", "ns/key"},
    {"ht.insert_direct_ratio", "ratio"},
    {"ht.hit_ratio", "ratio"},
    {"ht.slots_per_key", "slots/key"},
    {"kvs.multiget_ns_per_key", "ns/key"},
    {"kvs.multiget_keys_per_call", "keys/call"},
    {"kvs.busy_share", "ratio"},
    {"kvs.hit_ratio", "ratio"},
    {"kvs.standalone_multiget_ns_per_key", "ns/key"},
    {"kvs.unattributed_ns_per_key", "ns/key"},
    {"kvs.set_p50_us", "us"},
    {"kvs.set_p99_us", "us"},
    {"kvs.multiset_ns_per_key", "ns/key"},
    {"net.residency_p50_us", "us"},
    {"net.residency_p99_us", "us"},
    {"net.unattributed_us_per_request", "us/req"},
    {"net.batch_connections_mean", "conns"},
    {"net.protocol_errors", "count"},
    {"client.rtt_minus_residency_p50_us", "us"},
    {"trace.overhead_ratio", "ratio"},
};

bool KnownWorkload(const std::string& w) {
  return w == "ht-get-dram" || w == "ht-rw-l2" || w == "kv-rw-llc" ||
         w == "kv-get-dram";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args;
  std::string err;
  if (!bench::ParseArgs(argc, argv, &args, &err)) {
    std::fprintf(stderr, "simdht_repo_bench: %s\n", err.c_str());
    return 2;
  }
  if (!KnownWorkload(args.workload)) {
    std::fprintf(stderr,
                 "simdht_repo_bench: unknown workload '%s' (ht-get-dram, "
                 "ht-rw-l2, kv-rw-llc, kv-get-dram)\n",
                 args.workload.c_str());
    return 2;
  }

  bench::Report report;
  report.Note("workload " + args.workload + " seed " +
              std::to_string(args.seed) + (args.trace ? " traced" : "") +
              (args.tiny ? " tiny" : ""));
  for (const std::string& line : bench::HostDescription()) report.Note(line);
  if (args.trace) {
    for (const auto& m : kLayerMetrics) report.Layer(m.name, 0, m.unit, 0);
  }

  int rc = 0;
  try {
    rc = args.workload.rfind("ht-", 0) == 0
             ? bench::RunHtWorkload(args, &report)
             : bench::RunKvWorkload(args, &report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simdht_repo_bench: %s\n", e.what());
    return 2;
  }
  if (rc != 0) return rc;

  if (args.trace) {
    const std::string path = args.out_dir + "/" + args.workload + ".trace.json";
    ::mkdir(args.out_dir.c_str(), 0755);
    if (bench::SpanSink::Write(path, &err)) {
      report.Note("spans written to " + path);
    } else {
      report.Note("spans not written: " + err);
    }
  }
  return report.Print(args.trace) ? 0 : 1;
}
