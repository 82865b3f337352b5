// How both ends of the TCP path wait: poll without sleeping for a short
// budget, then block in the kernel — unless the thread's core is contended.
//
// A thread that blocks in epoll_wait or recv and is then woken pays the
// host's wake-up cost: on a KVM guest an idle vCPU halts, and the wake-up
// IPI, the entry back into the guest and the reschedule cost 5-6 µs per
// hop on a 4-vCPU Xeon guest (docs/serving.md). A Multi-Get round trip
// crosses two hops (request into the server, response into the client),
// which on loopback is more than a 96-key request's backend work. The
// RDMA-Memcached servers the paper measures poll their completion queues
// and never pay this.
//
// kPollBeforeSleep bounds the polling: KvTcpServer::Run() polls with
// PollOnce(0) until this long has passed without an event, and
// KvTcpClient::RecvFrame tries non-blocking recv for this long after it
// starts waiting for a response. A closed-loop connection's next request
// (or the server's response) normally lands inside it, so neither end
// sleeps while traffic flows; an idle end burns at most this much CPU per
// request before it blocks.
//
// Polling only pays while the core would otherwise idle. With more runnable
// threads than cores, a poller holds a core that a woken peer needs, and
// the peer's wait shows up as milliseconds of tail latency. The scheduler
// then preempts the poller to run the peer, so a thread that keeps being
// preempted knows its core is contended: MayPollBeforeSleep() stops it
// polling (PollGate below).
#ifndef SIMDHT_NET_WAIT_POLICY_H_
#define SIMDHT_NET_WAIT_POLICY_H_

#include <chrono>
#include <cstdint>

namespace simdht {

inline constexpr std::chrono::microseconds kPollBeforeSleep{50};

// Decides whether one thread may poll, from how often the scheduler
// preempts it (involuntary context switches). Every kWindow while open it
// compares the preemptions since the last check with the elapsed time:
// kMaxPreemptions or more per kWindow means contended, and the gate closes
// for a backoff. The backoff starts at kMinBackoff and doubles, up to
// kMaxBackoff, each time the gate closes again before a quiet window of
// polling, which resets it. A thread starts closed, so the first
// kMinBackoff of its life is such a check too: a thread started on an
// oversubscribed host never polls. On a core the thread
// has to itself preemptions are rare (the benchmark's pinned server and
// clients see under 10 a second), so the gate stays open; an
// oversubscribed poller is preempted hundreds to thousands of times a
// second.
class PollGate {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::chrono::milliseconds kWindow{10};
  static constexpr std::uint64_t kMaxPreemptions = 3;
  static constexpr std::chrono::milliseconds kMinBackoff{100};
  static constexpr std::chrono::milliseconds kMaxBackoff{1600};

  // `preemptions` reads the calling thread's involuntary context-switch
  // count; Open() calls it at most once per check.
  bool Open(Clock::time_point now, std::uint64_t (*preemptions)()) {
    return now < next_check_ ? open_ : Check(now, preemptions());
  }
  // The decision at a check, given the preemption count then.
  bool Check(Clock::time_point now, std::uint64_t preemptions);

 private:
  bool open_ = false;
  bool started_ = false;
  Clock::time_point since_{};       // time of the last check
  Clock::time_point next_check_{};  // the decision holds until then
  std::uint64_t base_ = 0;          // preemption count at the last check
  std::chrono::milliseconds backoff_ = kMinBackoff;
};

// The calling thread's involuntary context switches so far.
std::uint64_t ThreadPreemptions();

// Whether the calling thread may poll before it blocks (its own PollGate).
bool MayPollBeforeSleep(std::chrono::steady_clock::time_point now);

}  // namespace simdht

#endif  // SIMDHT_NET_WAIT_POLICY_H_
