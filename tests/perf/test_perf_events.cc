// CounterGroup / PerfSample tests.
//
// These must pass in every environment the suite runs in: bare metal with a
// PMU, containers with perf_event_paranoid >= 2, and VMs where hardware
// events return ENOENT. Hardware-dependent assertions therefore GTEST_SKIP
// when the events do not open; the fallback path is exercised
// deterministically by forcing SIMDHT_PERF_DISABLE=1.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "perf/perf_events.h"

namespace simdht {
namespace {

// Sets SIMDHT_PERF_DISABLE=1 for the scope, restoring the previous state.
class ForcePerfDisabled {
 public:
  ForcePerfDisabled() {
    const char* prev = std::getenv("SIMDHT_PERF_DISABLE");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    setenv("SIMDHT_PERF_DISABLE", "1", 1);
  }
  ~ForcePerfDisabled() {
    if (had_prev_) {
      setenv("SIMDHT_PERF_DISABLE", prev_.c_str(), 1);
    } else {
      unsetenv("SIMDHT_PERF_DISABLE");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

volatile std::uint64_t g_sink;

void BurnCycles() {
  std::uint64_t x = 1;
  for (int i = 0; i < 2000000; ++i) x = x * 6364136223846793005ull + 1;
  g_sink = x;
}

TEST(PerfEventNames, RoundTrip) {
  for (unsigned i = 0; i < kNumPerfEvents; ++i) {
    const PerfEvent e = static_cast<PerfEvent>(i);
    PerfEvent parsed;
    ASSERT_TRUE(ParsePerfEvent(PerfEventName(e), &parsed)) << i;
    EXPECT_EQ(parsed, e);
  }
  PerfEvent unused;
  EXPECT_FALSE(ParsePerfEvent("not-an-event", &unused));
  EXPECT_FALSE(ParsePerfEvent("", &unused));
}

TEST(PerfEventNames, ListParsing) {
  std::vector<PerfEvent> events;
  std::string why;
  ASSERT_TRUE(ParsePerfEventList("cycles,llc-misses", &events, &why));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], PerfEvent::kCycles);
  EXPECT_EQ(events[1], PerfEvent::kLlcMisses);

  // Empty input = the default (full) set.
  ASSERT_TRUE(ParsePerfEventList("", &events, &why));
  EXPECT_EQ(events.size(), kNumPerfEvents);

  // Unknown names fail loudly and leave *out untouched.
  std::vector<PerfEvent> untouched = {PerfEvent::kDtlbLoads};
  EXPECT_FALSE(ParsePerfEventList("cycles,bogus", &untouched, &why));
  EXPECT_NE(why.find("bogus"), std::string::npos);
  ASSERT_EQ(untouched.size(), 1u);
  EXPECT_EQ(untouched[0], PerfEvent::kDtlbLoads);

  EXPECT_FALSE(ParsePerfEventList(",,,", &untouched, &why));
}

TEST(PerfSampleTest, AccumulateMergesMasksAndFlags) {
  PerfSample a;
  a.values[0] = 100;  // cycles
  a.valid_mask = 1u << 0;
  PerfSample b;
  b.values[0] = 50;
  b.values[1] = 200;  // instructions
  b.valid_mask = (1u << 0) | (1u << 1);
  b.estimated_cycles = true;
  b.max_scale = 2.5;

  a.Accumulate(b);
  EXPECT_TRUE(a.Has(PerfEvent::kCycles));
  EXPECT_TRUE(a.Has(PerfEvent::kInstructions));
  EXPECT_FALSE(a.Has(PerfEvent::kLlcMisses));
  EXPECT_DOUBLE_EQ(a.Value(PerfEvent::kCycles), 150.0);
  EXPECT_DOUBLE_EQ(a.Value(PerfEvent::kInstructions), 200.0);
  EXPECT_TRUE(a.estimated_cycles);  // sticky across accumulation
  EXPECT_DOUBLE_EQ(a.max_scale, 2.5);
}

TEST(DerivedPerfTest, RatiosAndNanGating) {
  PerfSample s;
  s.values[static_cast<unsigned>(PerfEvent::kCycles)] = 1000;
  s.values[static_cast<unsigned>(PerfEvent::kInstructions)] = 2500;
  s.values[static_cast<unsigned>(PerfEvent::kLlcLoads)] = 100;
  s.values[static_cast<unsigned>(PerfEvent::kLlcMisses)] = 25;
  s.valid_mask = 0b1111;

  const DerivedPerf d = ComputeDerived(s, 100);
  EXPECT_TRUE(d.collected);
  EXPECT_DOUBLE_EQ(d.cycles_per_op, 10.0);
  EXPECT_DOUBLE_EQ(d.ipc, 2.5);
  EXPECT_DOUBLE_EQ(d.llc_misses_per_op, 0.25);
  EXPECT_DOUBLE_EQ(d.llc_miss_rate, 0.25);
  EXPECT_TRUE(std::isnan(d.dtlb_misses_per_op));  // not measured
  EXPECT_TRUE(std::isnan(d.branch_misses_per_op));

  // ops == 0 leaves everything NaN.
  const DerivedPerf zero = ComputeDerived(s, 0);
  EXPECT_TRUE(std::isnan(zero.cycles_per_op));

  // Empty sample is "not collected".
  EXPECT_FALSE(ComputeDerived(PerfSample{}, 100).collected);
}

TEST(FormatPerfValueTest, MarksEstimatesAndGaps) {
  EXPECT_EQ(FormatPerfValue(std::nan(""), false), "-");
  EXPECT_EQ(FormatPerfValue(12.345, false, 1), "12.3");
  EXPECT_EQ(FormatPerfValue(12.345, true, 1), "~12.3");
}

// The acceptance-criterion path: with perf force-disabled the group opens
// nothing, and Stop() still reports cycles — TSC-estimated and marked so.
TEST(CounterGroupTest, ForcedFallbackYieldsEstimatedCycles) {
  ForcePerfDisabled guard;
  ASSERT_TRUE(PerfForceDisabled());

  CounterGroup group;
  EXPECT_FALSE(group.hardware_available());
  EXPECT_TRUE(group.open_events().empty());

  group.Start();
  BurnCycles();
  const PerfSample s = group.Stop();

  EXPECT_TRUE(s.Has(PerfEvent::kCycles));
  EXPECT_TRUE(s.estimated_cycles);
  EXPECT_GT(s.Value(PerfEvent::kCycles), 0.0);
  EXPECT_GT(s.time_enabled_ns, 0.0);
  // Only cycles exist in fallback mode.
  EXPECT_FALSE(s.Has(PerfEvent::kInstructions));
  EXPECT_FALSE(s.Has(PerfEvent::kLlcMisses));

  const DerivedPerf d = ComputeDerived(s, 1000);
  EXPECT_TRUE(d.collected);
  EXPECT_TRUE(d.estimated);
  EXPECT_GT(d.cycles_per_op, 0.0);
  EXPECT_TRUE(std::isnan(d.ipc));
  EXPECT_EQ(FormatPerfValue(d.cycles_per_op, d.estimated, 1)[0], '~');
}

TEST(CounterGroupTest, StopWithoutStartIsEmpty) {
  ForcePerfDisabled guard;
  CounterGroup group;
  const PerfSample s = group.Stop();
  EXPECT_EQ(s.valid_mask, 0u);
}

TEST(CounterGroupTest, FallbackOnlyCollectsCyclesWhenRequested) {
  ForcePerfDisabled guard;
  // A set without kCycles must not fabricate an estimate for it.
  CounterGroup group({PerfEvent::kInstructions, PerfEvent::kLlcMisses});
  group.Start();
  BurnCycles();
  const PerfSample s = group.Stop();
  EXPECT_FALSE(s.Has(PerfEvent::kCycles));
  EXPECT_EQ(s.valid_mask, 0u);
}

TEST(CounterGroupTest, MoveTransfersOwnership) {
  CounterGroup a;
  CounterGroup b = std::move(a);
  b.Start();
  BurnCycles();
  const PerfSample s = b.Stop();
  EXPECT_TRUE(s.Has(PerfEvent::kCycles));  // hardware or estimated
}

TEST(ProbeTest, ProbesEveryRequestedEvent) {
  const auto probes = ProbePerfEvents();
  ASSERT_EQ(probes.size(), kNumPerfEvents);
  for (const PerfEventProbe& p : probes) {
    if (!p.available) {
      EXPECT_FALSE(p.error.empty());
    }
  }
}

TEST(ProbeTest, ForcedDisableReportsUnavailable) {
  ForcePerfDisabled guard;
  for (const PerfEventProbe& p : ProbePerfEvents({PerfEvent::kCycles})) {
    EXPECT_FALSE(p.available);
    EXPECT_NE(p.error.find("SIMDHT_PERF_DISABLE"), std::string::npos);
  }
}

// Hardware-only checks: skip (not fail) where the PMU is unreachable.
TEST(CounterGroupTest, HardwareCountersWhenAvailable) {
  CounterGroup group;
  if (!group.hardware_available()) {
    GTEST_SKIP() << "perf_event_open unavailable (container/VM); "
                    "fallback path covered elsewhere";
  }
  group.Start();
  BurnCycles();
  const PerfSample s = group.Stop();
  ASSERT_NE(s.valid_mask, 0u);
  for (PerfEvent e : group.open_events()) {
    if (s.Has(e)) {
      EXPECT_GE(s.Value(e), 0.0) << PerfEventName(e);
    }
  }
  if (s.Has(PerfEvent::kCycles) && !s.estimated_cycles) {
    // ~2M multiply-adds must cost a nontrivial number of real cycles.
    EXPECT_GT(s.Value(PerfEvent::kCycles), 100000.0);
  }
}

}  // namespace
}  // namespace simdht
