#include "net/wait_policy.h"

#include <sys/resource.h>

#include <algorithm>

namespace simdht {

bool PollGate::Check(Clock::time_point now, std::uint64_t preemptions) {
  // The rate since the last check: over the last window while open, over
  // the whole backoff while closed.
  const auto elapsed = std::max(now - since_, Clock::duration(kWindow));
  const bool contended =
      (preemptions - base_) * kWindow >= kMaxPreemptions * elapsed;
  since_ = now;
  base_ = preemptions;
  if (!started_) {
    // The first call only starts the count: a new thread polls once it has
    // gone kMinBackoff without contention.
    started_ = true;
    next_check_ = now + kMinBackoff;
  } else if (contended) {
    open_ = false;
    next_check_ = now + backoff_;
    backoff_ = std::min(backoff_ * 2, kMaxBackoff);
  } else {
    // A quiet window of polling resets the backoff; a quiet backoff only
    // reopens the gate, so a contended first window closes it for longer.
    if (open_) backoff_ = kMinBackoff;
    open_ = true;
    next_check_ = now + kWindow;
  }
  return open_;
}

std::uint64_t ThreadPreemptions() {
  rusage usage{};
  if (::getrusage(RUSAGE_THREAD, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_nivcsw);
}

bool MayPollBeforeSleep(std::chrono::steady_clock::time_point now) {
  thread_local PollGate gate;
  return gate.Open(now, &ThreadPreemptions);
}

}  // namespace simdht
