// Shared plumbing for the repo benchmark: command line, clocks, sample
// statistics, thread placement, resident-memory probes, host description,
// span recording and the result report.
#ifndef SIMDHT_BENCHMARK_BENCH_UTIL_H_
#define SIMDHT_BENCHMARK_BENCH_UTIL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace bench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scales every store and input pool down ~1000x (self-test).
  bool tiny = false;
  // Hands the server a backend that corrupts MultiGet results (self-test).
  bool corrupt = false;
  std::string out_dir = ".bench_build/traces";
};

// Parses --workload/--seed/--seconds/--trace/--tiny/--corrupt/--out-dir.
// Returns false and fills *err on a malformed or missing flag.
bool ParseArgs(int argc, char** argv, Args* args, std::string* err);

// Monotonic clock in nanoseconds.
std::uint64_t NowNs();

// CPU time of the calling thread in nanoseconds. The kernel leaves out the
// time the hypervisor ran something else (steal time), so on a shared host
// this times single-threaded work that never waits; it costs ~0.4 µs a read.
std::uint64_t ThreadCpuNs();

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; sorts it.
double Percentile(std::vector<double>* samples, double p);
double Median(std::vector<double> samples);

// Pins the calling thread to one CPU. Returns false when the kernel refuses.
bool PinToCpu(int cpu);

// Ranks the CPUs this process may run on by a short spin loop timed on
// each, fastest first. Other tenants of a shared host slow single cores
// (a busy sibling hyperthread) for tens of seconds at a time, so a run
// re-ranks right before it measures.
void RankCpus();

// CPU for a role under the last ranking: 0 is the single worker or the
// server, 1 and 2 the clients. Role r takes the (r+1)-th fastest CPU, so
// the slowest of four is left to the operating system; roles wrap around on
// hosts with fewer CPUs.
int CpuForRole(int role);

// "core map: worker/server cpu 2, client0 cpu 0, ..." for roles [0, roles).
std::string CoreMap(int roles);

// Keeps `cpus` from going idle while the object lives: one thread per CPU,
// pinned there at SCHED_IDLE priority, spins until destruction. Any other
// thread that becomes runnable on the CPU preempts it at once.
//
// This guest idles a CPU by halting it (no cpuidle polling), and under load
// from other tenants the hypervisor takes milliseconds to run a halted vCPU
// again once a wake-up arrives for it. A closed-loop request crosses two
// such wake-ups, so without this the round trip measured the host's
// scheduler (see NOTES.md, "Steadiness").
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// Resident set size of this process in bytes (0 when unavailable).
std::uint64_t ResidentBytes();

// CPU time of all CPUs of this machine in clock ticks, from /proc/stat.
struct HostTicks {
  std::uint64_t steal = 0;  // time the hypervisor ran something else
  std::uint64_t total = 0;
};
HostTicks ReadHostTicks();

// "host steal during measurement: 1.2 % of CPU time" between two readings.
std::string StealNote(const HostTicks& before, const HostTicks& after);

// One line per fact: nproc, CPU model, cache sizes.
std::vector<std::string> HostDescription();

// Stable 32-bit bijection (murmur3 finalizer) used to derive keys and
// values from ids.
inline std::uint32_t Mix32(std::uint32_t x) {
  x ^= x >> 16;
  x *= 0x85ebca6bu;
  x ^= x >> 13;
  x *= 0xc2b2ae35u;
  x ^= x >> 16;
  return x;
}

// Maps a Zipf rank onto an id in [0, n) so that popular ids are spread over
// the key space (the same scrambling YCSB applies).
inline std::uint64_t ScrambleRank(std::uint64_t rank, std::uint64_t n,
                                  std::uint64_t salt) {
  return (rank * 2654435761ull + salt) % n;
}

// One completed request of a measured phase.
struct Sample {
  std::uint64_t end_ns = 0;  // NowNs() at completion
  double latency_ns = 0;
  std::uint32_t items = 0;   // keys the request carried
};

// A phase's samples cut into fixed windows. Each figure is the mean over the
// windows of that window's value (a rate, or a percentile of the window's
// requests). Other tenants of a shared host switch it between a slow and a
// fast state in bursts of about half a second (on `ht-rw-l2` a window's
// median request took ~10.5 or ~6.3 µs, little in between), and the share
// of fast windows drifts over minutes: a median over the windows jumped
// from one state to the other as that share crossed one half, while the
// mean moves in proportion to it.
struct Windowed {
  double items_per_s = 0;       // per window: see Summarize
  double wall_items_per_s = 0;  // per window: items / window length
  double p50_us = 0;            // per window: median latency
  double p90_us = 0;            // per window: 90th percentile latency
  double p99_us = 0;            // per window: 99th percentile latency
  std::uint64_t samples = 0;
  std::uint64_t windows = 0;      // windows with samples
  std::uint64_t interrupted = 0;  // requests left out of items_per_s
};

// Length of one window.
constexpr std::uint64_t kWindowNs = 250000000;

// A request that takes this many times its window's median request was
// interrupted: the hypervisor gave a CPU of this guest to another tenant
// (steal time), or the kernel ran something else, for a millisecond or more
// in the middle of it. Rates leave such requests out, so that time the
// program did not have its CPUs does not count as time it spent working;
// the latency percentiles keep them.
constexpr double kInterruptedFactor = 10.0;

// Summarizes `samples` completed in [start_ns, end_ns) over windows of
// `window_ns` (a trailing partial window is dropped unless it is the only
// one). The per-window rate is the items of the window's uninterrupted
// requests divided by their summed latency, times `concurrency`, the number
// of callers that keep one request each in flight: the rate the callers
// sustain while they run, without the time they spend between requests
// checking results.
Windowed Summarize(const std::vector<Sample>& samples, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::uint64_t window_ns,
                   unsigned concurrency);

// Whether to build the store once more: at least three builds, and more
// while those so far total under two seconds (at most 101), so that the
// median build time of a cheap store is taken over builds spread across
// seconds and is as steady as that of an expensive one.
inline bool MoreSetUps(const std::vector<double>& setup_s) {
  double total = 0;
  for (const double s : setup_s) total += s;
  return setup_s.size() < 3 || (total < 2.0 && setup_s.size() < 101);
}

// Accumulates timed calls into one layer: call count, work items, busy time,
// and optionally the per-call latency sample.
struct LayerTimer {
  std::uint64_t calls = 0;
  std::uint64_t items = 0;
  std::uint64_t ok = 0;  // useful outcomes the caller counts: hits, writes
  double busy_ns = 0;
  std::vector<double> latency_ns;  // filled only when keep_latency
  bool keep_latency = false;

  void Add(std::uint64_t n_items, double ns) {
    ++calls;
    items += n_items;
    busy_ns += ns;
    if (keep_latency) latency_ns.push_back(ns);
  }
  double NsPerItem() const {
    return items == 0 ? 0.0 : busy_ns / static_cast<double>(items);
  }
};

// Records spans of a traced run into obs::Timeline. Only every
// `sample_every`-th span a thread records (or, for request spans, every
// `sample_every`-th trace id) is stored, so a long run stays within a few
// tens of megabytes; the per-layer metrics come from LayerTimers that see
// every call.
class SpanSink {
 public:
  void Enable(unsigned sample_every);
  bool enabled() const { return enabled_; }
  // Timeline clock (microseconds) shared by every thread in the process.
  static double NowUs();
  // Records [start_us, end_us) named `name` when this call is sampled.
  // `trace_id` links the spans of one request (0 = none).
  void Span(const char* layer, const char* name, double start_us,
            double end_us, std::uint64_t trace_id, double items);
  // Writes the retained spans to `path` (Chrome trace JSON).
  static bool Write(const std::string& path, std::string* err);

 private:
  bool enabled_ = false;
  unsigned sample_every_ = 1;
};

// Ordered metric list printed as a table and as the final JSON line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

class Report {
 public:
  void EndToEnd(const std::string& name, double value, const std::string& unit,
                std::uint64_t samples);
  void Layer(const std::string& name, double value, const std::string& unit,
             std::uint64_t samples);
  // Printed for the reader only; never part of the JSON result.
  void Info(const std::string& name, double value, const std::string& unit,
            std::uint64_t samples);
  void Note(const std::string& line) { notes_.push_back(line); }

  void Attempt(std::uint64_t n) { attempted_ += n; }
  void Fail(std::uint64_t n, const std::string& first_error);
  double error_ratio() const {
    return attempted_ == 0 ? 1.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

  // Prints notes, every metric with unit and sample count, then the JSON
  // result line (end-to-end metrics, or per-layer ones when `traced`).
  // Returns true when the run is correct.
  bool Print(bool traced) const;

 private:
  std::vector<Metric> e2e_, layers_, info_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string first_error_;
};

}  // namespace bench

#endif  // SIMDHT_BENCHMARK_BENCH_UTIL_H_
