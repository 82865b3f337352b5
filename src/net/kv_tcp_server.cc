#include "net/kv_tcp_server.h"

#include <sys/epoll.h>

#include <chrono>

#include "net/wait_policy.h"

namespace simdht {

KvTcpServer::KvTcpServer(KvBackend* backend, KvTcpServerOptions options,
                         MetricsRegistry* metrics)
    : options_(std::move(options)),
      engine_(backend, metrics,
              {options_.window_interval_ms * 1'000'000ull,
               options_.window_intervals}) {}

KvTcpServer::~KvTcpServer() {
  Stop();
  Join();
}

bool KvTcpServer::Listen(std::string* err) {
  if (!loop_.valid()) {
    if (err) *err = loop_.init_error();
    return false;
  }
  if (!acceptor_.Listen(options_.host, options_.port, err)) return false;
  if (!loop_.Add(
          acceptor_.fd(), EPOLLIN | EPOLLET,
          [this](std::uint32_t) { OnAcceptReady(); }, err)) {
    return false;
  }
  if (options_.enable_metrics_http && !metrics_http_) {
    metrics_http_ = std::make_unique<MetricsHttpListener>(
        &loop_, [this] { return RenderMetricsText(); });
    if (!metrics_http_->Listen(options_.host, options_.metrics_http_port,
                               err)) {
      metrics_http_.reset();
      return false;
    }
  }
  return true;
}

void KvTcpServer::Run() {
  // Poll without sleeping until kPollBeforeSleep passes with no event, then
  // block; the first event after a block starts a new polling budget. A
  // thread whose core is contended blocks at once (MayPollBeforeSleep).
  using Clock = std::chrono::steady_clock;
  auto last_event = Clock::now();
  while (!stop_.load(std::memory_order_relaxed)) {
    const auto now = Clock::now();
    const bool poll =
        now - last_event < kPollBeforeSleep && MayPollBeforeSleep(now);
    if (PollOnce(poll ? 0 : 50) > 0) last_event = Clock::now();
  }
  // Final cycle already flushed; drop every connection.
  conns_.clear();
  dead_conns_.clear();
}

bool KvTcpServer::StartBackground(std::string* err) {
  if (!acceptor_.listening() && !Listen(err)) return false;
  thread_ = std::thread([this] { Run(); });
  return true;
}

void KvTcpServer::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  loop_.Wakeup();
}

void KvTcpServer::Join() {
  if (thread_.joinable()) thread_.join();
}

int KvTcpServer::PollOnce(int timeout_ms) {
  const auto cycle_start = std::chrono::steady_clock::now();
  const int dispatched = loop_.PollOnce(timeout_ms);
  worker_.Flush(sink_);
  Send();  // SET/STATS responses queued outside a batch flush
  if (dispatched > 0) {
    // The duration includes the epoll wait, so it bounds a frame's queueing
    // behind the cycle; idle cycles would swamp the window with timeouts.
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - cycle_start)
                        .count();
    engine_.RecordDispatch(static_cast<std::uint64_t>(us),
                           static_cast<std::uint64_t>(dispatched));
  }
  if (metrics_http_) metrics_http_->EndOfCycle();
  dead_conns_.clear();  // actual close(); fds are recyclable from here on
  return dispatched;
}

void KvTcpServer::OnAcceptReady() {
  acceptor_.AcceptReady([this](int fd) {
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>();
    conn->connection =
        std::make_unique<Connection>(fd, id, options_.max_write_buffer);
    conn->epoll_mask = EPOLLIN | EPOLLET;
    std::string err;
    if (!loop_.Add(fd, conn->epoll_mask,
                   [this, id](std::uint32_t ready) { OnConnEvent(id, ready); },
                   &err)) {
      return;  // Conn destructor closes the fd
    }
    engine_.CountConnection();
    conns_[id] = std::move(conn);
  });
}

void KvTcpServer::OnConnEvent(std::uint64_t id, std::uint32_t ready) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();
  std::string err;
  if ((ready & (EPOLLHUP | EPOLLERR)) ||
      ((ready & EPOLLOUT) && !conn->connection->FlushWrites(&err))) {
    CloseConn(conn);
    return;
  }
  if (ready & EPOLLIN) {
    const bool alive = conn->connection->ReadReady(&err);
    // Frames fully received before EOF are still served.
    DrainFrames(conn);
    if (!alive && !conn->dead) CloseConn(conn);
  }
  if (!conn->dead) UpdateInterest(conn);
}

void KvTcpServer::DrainFrames(Conn* conn) {
  using Verdict = KvRequestEngine::Verdict;
  const std::uint64_t id = conn->connection->id();
  std::string err;
  for (;;) {
    switch (conn->connection->NextFrame(&frame_, &err)) {
      case FrameAssembler::Result::kNeedMore:
        return;
      case FrameAssembler::Result::kError:
        engine_.CountProtocolError();
        CloseConn(conn);
        return;
      case FrameAssembler::Result::kFrame:
        break;
    }
    // A flush inside Handle sends to every connection, so it may close this
    // one (CloseConn is a no-op on a dead connection).
    switch (worker_.Handle(frame_, id, sink_, &response_)) {
      case Verdict::kReply:
        if (!conn->dead) conn->connection->QueueFrame(response_);
        break;
      case Verdict::kQueued:
        if (worker_.pending_keys() >= options_.max_batch_keys) {
          worker_.Flush(sink_);
        }
        break;
      case Verdict::kShutdown:
        stop_.store(true, std::memory_order_relaxed);
        return;
      case Verdict::kMalformed:
        CloseConn(conn);  // the stream cannot be trusted
        return;
    }
    if (conn->dead || stop_.load(std::memory_order_relaxed)) return;
  }
}

void KvTcpServer::Send() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn* conn = (it++)->second.get();  // CloseConn erases only this entry
    std::string err;
    if (conn->connection->wants_write() &&
        !conn->connection->FlushWrites(&err)) {
      CloseConn(conn);
      continue;
    }
    UpdateInterest(conn);
  }
}

void KvTcpServer::UpdateInterest(Conn* conn) {
  std::uint32_t want = EPOLLET;
  // Backpressure: a connection whose write buffer is over the cap stops
  // being read until the peer drains it.
  if (!conn->connection->backpressured()) want |= EPOLLIN;
  if (conn->connection->wants_write()) want |= EPOLLOUT;
  if (want == conn->epoll_mask) return;
  std::string err;
  if (loop_.Modify(conn->connection->fd(), want, &err)) {
    conn->epoll_mask = want;
  }
}

void KvTcpServer::CloseConn(Conn* conn) {
  if (conn->dead) return;  // already parked in dead_conns_
  conn->dead = true;
  loop_.Remove(conn->connection->fd());
  // The fd stays open until end-of-cycle: a stale event in this dispatch
  // batch must not hit a recycled fd number.
  const auto it = conns_.find(conn->connection->id());
  dead_conns_.push_back(std::move(it->second));
  conns_.erase(it);
}

}  // namespace simdht
