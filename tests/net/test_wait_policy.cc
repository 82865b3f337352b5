// PollGate: the decision whether a thread may poll before it blocks, driven
// by synthetic clocks and preemption counts.
#include "net/wait_policy.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

namespace simdht {
namespace {

using Clock = PollGate::Clock;
using std::chrono::milliseconds;

// The preemption count Open() reads, and how often it read it.
std::uint64_t g_preemptions = 0;
int g_reads = 0;
std::uint64_t ReadPreemptions() {
  ++g_reads;
  return g_preemptions;
}

class PollGateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_preemptions = 0;
    g_reads = 0;
  }
  // Advances the clock by `ms`, after `preempted` more preemptions.
  bool At(int ms, std::uint64_t preempted = 0) {
    now_ += milliseconds(ms);
    g_preemptions += preempted;
    return gate_.Open(now_, &ReadPreemptions);
  }

  // A new gate opens after a quiet first kMinBackoff.
  void StartOpen() {
    ASSERT_FALSE(At(0));
    ASSERT_TRUE(At(PollGate::kMinBackoff.count()));
  }

  PollGate gate_;
  Clock::time_point now_ = Clock::now();
};

TEST_F(PollGateTest, StaysOpenOnAQuietCore) {
  ASSERT_NO_FATAL_FAILURE(StartOpen());
  for (int w = 0; w < 100; ++w) {
    // Fewer than kMaxPreemptions per window, checked once per window.
    EXPECT_TRUE(At(5, w % 3));
    EXPECT_TRUE(At(5));
  }
  EXPECT_EQ(g_reads, 102);
}

TEST_F(PollGateTest, ClosesUnderContentionAndBacksOffLonger) {
  ASSERT_NO_FATAL_FAILURE(StartOpen());
  EXPECT_FALSE(At(10, PollGate::kMaxPreemptions));  // closes for 100 ms
  const int reads = g_reads;
  EXPECT_FALSE(At(99));   // no read while closed
  EXPECT_EQ(g_reads, reads);
  EXPECT_TRUE(At(1));     // a quiet backoff reopens the gate
  EXPECT_FALSE(At(10, PollGate::kMaxPreemptions));  // now 200 ms
  EXPECT_FALSE(At(199));
  EXPECT_TRUE(At(1));
  EXPECT_FALSE(At(10, PollGate::kMaxPreemptions));  // 400 ms
  EXPECT_FALSE(At(399));
  EXPECT_TRUE(At(1));
  // A quiet window of polling resets the backoff to 100 ms.
  EXPECT_TRUE(At(10));
  EXPECT_FALSE(At(10, PollGate::kMaxPreemptions));
  EXPECT_FALSE(At(99));
  EXPECT_TRUE(At(1));
}

TEST_F(PollGateTest, BackoffIsCapped) {
  ASSERT_NO_FATAL_FAILURE(StartOpen());
  int closed_ms = 0;
  for (int round = 0; round < 8; ++round) {
    EXPECT_FALSE(At(10, PollGate::kMaxPreemptions));
    closed_ms = 0;
    while (!At(1)) ++closed_ms;
  }
  EXPECT_EQ(closed_ms + 1, PollGate::kMaxBackoff.count());
}

TEST_F(PollGateTest, StaysClosedWhileTheBackoffWasContended) {
  ASSERT_NO_FATAL_FAILURE(StartOpen());
  EXPECT_FALSE(At(10, PollGate::kMaxPreemptions));
  // Preempted at the contended rate all through the 100 ms backoff: the
  // gate stays closed, for 200 ms.
  EXPECT_FALSE(At(100, 10 * PollGate::kMaxPreemptions));
  EXPECT_FALSE(At(199));
  // Preempted, but below the rate over the 200 ms: open again.
  EXPECT_TRUE(At(1, PollGate::kMaxPreemptions));
}

TEST_F(PollGateTest, StartsClosedUnderContention) {
  EXPECT_FALSE(At(0));
  // Preempted at the contended rate through the first 100 ms: closed on.
  EXPECT_FALSE(At(100, 10 * PollGate::kMaxPreemptions));
  EXPECT_FALSE(At(99));
  EXPECT_TRUE(At(1));
}

TEST(PollGate, AFreshThreadPollsAfterItsFirstCheck) {
  bool first = true, later = false;
  std::thread([&] {
    const Clock::time_point now = Clock::now();
    first = MayPollBeforeSleep(now);
    later = MayPollBeforeSleep(now + PollGate::kMinBackoff);
  }).join();
  EXPECT_FALSE(first);
  EXPECT_TRUE(later);
  const std::uint64_t before = ThreadPreemptions();
  EXPECT_GE(ThreadPreemptions(), before);
}

}  // namespace
}  // namespace simdht
