#include "bench_util.h"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <immintrin.h>

#include "obs/timeline.h"

namespace bench {

namespace {

bool ParseDouble(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool ParseU64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string CpuBrand() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

std::string KiB(long bytes) {
  if (bytes <= 0) return "unknown";
  if (bytes % (1 << 20) == 0) return std::to_string(bytes >> 20) + " MiB";
  return std::to_string(bytes >> 10) + " KiB";
}

}  // namespace

bool ParseArgs(int argc, char** argv, Args* args, std::string* err) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (flag == "--corrupt") {
      args->corrupt = true;
      continue;
    }
    if (i + 1 >= argc) {
      *err = "missing value for " + flag;
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseU64(value, &args->seed)) {
        *err = "bad --seed";
        return false;
      }
    } else if (flag == "--seconds") {
      if (!ParseDouble(value, &args->seconds) || args->seconds <= 0) {
        *err = "bad --seconds";
        return false;
      }
    } else if (flag == "--trace") {
      const std::string v = value;
      if (v != "0" && v != "1") {
        *err = "--trace takes 0 or 1";
        return false;
      }
      args->trace = v == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      *err = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload) {
    *err = "--workload is required";
    return false;
  }
  return true;
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples->size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(samples->size() - 1,
                              static_cast<std::size_t>(rank) - 1);
  return (*samples)[idx];
}

double Median(std::vector<double> samples) {
  return Percentile(&samples, 50);
}

Windowed Summarize(const std::vector<Sample>& samples, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::uint64_t window_ns,
                   unsigned concurrency) {
  Windowed w;
  w.samples = samples.size();
  if (samples.empty() || end_ns <= start_ns) return w;
  const std::uint64_t span = end_ns - start_ns;
  const std::size_t n = std::max<std::uint64_t>(1, span / window_ns);
  if (span < window_ns) window_ns = span;
  std::vector<std::vector<const Sample*>> bins(n);
  for (const Sample& s : samples) {
    if (s.end_ns < start_ns) continue;
    const std::size_t b = (s.end_ns - start_ns) / window_ns;
    if (b >= n) continue;
    bins[b].push_back(&s);
  }
  std::vector<double> rate, wall_rate, p50, p90, p99;
  for (const std::vector<const Sample*>& bin : bins) {
    if (bin.empty()) continue;
    ++w.windows;
    std::vector<double> lat;
    lat.reserve(bin.size());
    for (const Sample* s : bin) lat.push_back(s->latency_ns);
    const double median_ns = Median(lat);
    double items = 0, all_items = 0, busy_ns = 0;
    for (const Sample* s : bin) {
      all_items += s->items;
      if (s->latency_ns > kInterruptedFactor * median_ns) {
        ++w.interrupted;
        continue;
      }
      items += s->items;
      busy_ns += s->latency_ns;
    }
    rate.push_back(items / busy_ns * 1e9 * concurrency);
    wall_rate.push_back(all_items / static_cast<double>(window_ns) * 1e9);
    p50.push_back(Percentile(&lat, 50) / 1e3);
    p90.push_back(Percentile(&lat, 90) / 1e3);
    p99.push_back(Percentile(&lat, 99) / 1e3);
  }
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  w.items_per_s = mean(rate);
  w.wall_items_per_s = mean(wall_rate);
  w.p50_us = mean(p50);
  w.p90_us = mean(p90);
  w.p99_us = mean(p99);
  return w;
}

bool PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

namespace {

std::vector<int> AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    if (out.empty()) out.push_back(0);
    return out;
  }();
  return cpus;
}

// Nanoseconds a fixed dependent integer loop takes on the calling thread.
double SpinNs() {
  const std::uint64_t t0 = NowNs();
  std::uint64_t x = 1;
  for (int i = 0; i < 2000000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    asm volatile("" : "+r"(x));
  }
  return static_cast<double>(NowNs() - t0);
}

// Allowed CPUs, fastest first, as of the last RankCpus().
std::vector<int> g_ranked;

}  // namespace

void RankCpus() {
  const std::vector<int>& cpus = AllowedCpus();
  cpu_set_t original;
  CPU_ZERO(&original);
  sched_getaffinity(0, sizeof(original), &original);
  constexpr int kRounds = 5;
  std::vector<std::vector<double>> ns(cpus.size());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      ns[i].push_back(PinToCpu(cpus[i]) ? SpinNs() : 1e300);
    }
  }
  sched_setaffinity(0, sizeof(original), &original);
  std::vector<double> median;
  for (const std::vector<double>& v : ns) median.push_back(Median(v));
  std::vector<std::size_t> order(cpus.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return median[a] < median[b];
                   });
  g_ranked.clear();
  for (const std::size_t i : order) g_ranked.push_back(cpus[i]);
}

int CpuForRole(int role) {
  if (g_ranked.empty()) RankCpus();
  return g_ranked[static_cast<std::size_t>(role) % g_ranked.size()];
}

std::string CoreMap(int roles) {
  static const char* const kNames[] = {"worker/server", "client0", "client1"};
  std::string out = "core map:";
  for (int r = 0; r < roles && r < 3; ++r) {
    out += std::string(r ? ", " : " ") + kNames[r] + " cpu " +
           std::to_string(CpuForRole(r));
  }
  return out;
}

IdleSpinners::IdleSpinners(const std::vector<int>& cpus) {
  for (const int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      sched_param param{};
      // At normal priority a spinner would take CPU time from the thread it
      // serves, so it only spins once pinned at idle priority.
      if (!PinToCpu(cpu) ||
          pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) _mm_pause();
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

std::uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return 0;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

HostTicks ReadHostTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  HostTicks t;
  if (!(stat >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) return HostTicks{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

std::string StealNote(const HostTicks& before, const HostTicks& after) {
  if (after.total <= before.total) return "host steal during measurement: n/a";
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "host steal during measurement: %.1f %% of CPU time",
                100.0 * static_cast<double>(after.steal - before.steal) /
                    static_cast<double>(after.total - before.total));
  return buf;
}

std::vector<std::string> HostDescription() {
  std::vector<std::string> out;
  std::string cpus;
  for (const int c : AllowedCpus()) {
    cpus += (cpus.empty() ? "" : ",") + std::to_string(c);
  }
  out.push_back("nproc: " + std::to_string(AllowedCpus().size()) +
                " (cpus " + cpus + ")");
  out.push_back("cpu: " + CpuBrand());
  out.push_back("l1d: " + KiB(sysconf(_SC_LEVEL1_DCACHE_SIZE)) +
                "  l2: " + KiB(sysconf(_SC_LEVEL2_CACHE_SIZE)) +
                "  l3: " + KiB(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  return out;
}

void SpanSink::Enable(unsigned sample_every) {
  enabled_ = true;
  sample_every_ = sample_every == 0 ? 1 : sample_every;
  simdht::Timeline::Global().Enable();
}

double SpanSink::NowUs() { return simdht::Timeline::Global().NowUs(); }

void SpanSink::Span(const char* layer, const char* name, double start_us,
                    double end_us, std::uint64_t trace_id, double items) {
  if (!enabled_) return;
  // Per-thread counter: spans are sampled per recording thread, and a
  // request's spans share its trace id so they are kept or dropped together.
  thread_local std::uint64_t seq = 0;
  const std::uint64_t key = trace_id != 0 ? trace_id : ++seq;
  if (key % sample_every_ != 0) return;
  simdht::TimelineArgs args{simdht::TimelineArg::Num("items", items)};
  if (trace_id != 0) {
    args.push_back(simdht::TimelineArg::Num("trace_id",
                                            static_cast<double>(trace_id)));
  }
  simdht::Timeline::Global().RecordSpan(layer, name, start_us, end_us,
                                        std::move(args));
}

bool SpanSink::Write(const std::string& path, std::string* err) {
  return simdht::Timeline::Global().WriteToFile(path, err);
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit, std::uint64_t samples) {
  e2e_.push_back({name, value, unit, samples});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, std::uint64_t samples) {
  for (Metric& m : layers_) {
    if (m.name == name) {
      m = {name, value, unit, samples};
      return;
    }
  }
  layers_.push_back({name, value, unit, samples});
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit, std::uint64_t samples) {
  info_.push_back({name, value, unit, samples});
}

void Report::Fail(std::uint64_t n, const std::string& first_error) {
  if (n == 0) return;
  if (failed_ == 0) first_error_ = first_error;
  failed_ += n;
}

bool Report::Print(bool traced) const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  const auto table = [](const char* title, const std::vector<Metric>& ms) {
    if (ms.empty()) return;
    std::printf("%s\n", title);
    for (const Metric& m : ms) {
      std::printf("  %-40s %16.4f %-10s n=%llu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    }
  };
  table("end-to-end", e2e_);
  table("detail", info_);
  table("per-layer", layers_);
  std::printf("error_ratio %.6g (%llu failed of %llu attempted)%s%s\n",
              error_ratio(), static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_),
              first_error_.empty() ? "" : "; first: ", first_error_.c_str());

  const std::vector<Metric>& out = traced ? layers_ : e2e_;
  bool finite = true;
  for (const Metric& m : out) finite = finite && std::isfinite(m.value);
  const bool correct = failed_ == 0 && attempted_ > 0 && finite;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : out) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + JsonEscape(m.name) + "\": {\"value\": " +
            (std::isfinite(m.value) ? FormatNumber(m.value) : "null") +
            ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct;
}

}  // namespace bench
