#include "net/kv_tcp_client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

#include "net/wait_policy.h"
#include "obs/timeline.h"

namespace simdht {

bool KvTcpClient::Fail(std::string* err, const std::string& message) {
  if (err) *err = message;
  // A failed exchange leaves the stream in an unknown state; drop it.
  fd_.reset();
  return false;
}

bool KvTcpClient::Connect(const std::string& host, std::uint16_t port,
                          std::string* err) {
  const int fd = ConnectTcp(host, port, err);
  if (fd < 0) return false;
  fd_.reset(fd);
  assembler_ = FrameAssembler();
  return true;
}

bool KvTcpClient::SendFrame(const Buffer& payload, std::string* err) {
  if (!fd_.valid()) return Fail(err, "not connected");
  wire_.clear();
  AppendFrame(payload, &wire_);
  std::size_t sent = 0;
  while (sent < wire_.size()) {
    const ssize_t n = ::send(fd_.get(), wire_.data() + sent,
                             wire_.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Fail(err, ErrnoString("send"));
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool KvTcpClient::RecvFrame(Buffer* frame, std::string* err) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const auto poll_until =
      MayPollBeforeSleep(start) ? start + kPollBeforeSleep : start;
  std::string assemble_err;
  for (;;) {
    switch (assembler_.Next(frame, &assemble_err)) {
      case FrameAssembler::Result::kFrame:
        return true;
      case FrameAssembler::Result::kError:
        return Fail(err, "bad frame from server: " + assemble_err);
      case FrameAssembler::Result::kNeedMore:
        break;
    }
    std::uint8_t chunk[64 * 1024];
    const int flags = Clock::now() < poll_until ? MSG_DONTWAIT : 0;
    const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), flags);
    if (n > 0) {
      assembler_.Append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return Fail(err, "server closed connection");
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return Fail(err, ErrnoString("recv"));
  }
}

bool KvTcpClient::Set(std::string_view key, std::string_view val,
                      std::string* err) {
  EncodeSetRequest(key, val, &request_);
  if (!SendFrame(request_, err)) return false;
  if (!RecvFrame(&frame_, err)) return false;
  bool ok = false;
  std::string decode_err;
  if (!DecodeSetResponse(frame_, &ok, &decode_err)) {
    return Fail(err, "bad SET response: " + decode_err);
  }
  if (!ok && err) *err = "server rejected SET";
  return ok;
}

bool KvTcpClient::MultiGet(const std::vector<std::string_view>& keys,
                           std::vector<std::string>* vals,
                           std::vector<std::uint8_t>* found,
                           std::string* err) {
  EncodeMultiGetRequest(keys, &request_);
  if (!SendFrame(request_, err)) return false;
  if (!RecvFrame(&frame_, err)) return false;
  return DecodeMultiGet(keys.size(), nullptr, vals, found, nullptr, err);
}

bool KvTcpClient::MultiGetTraced(const std::vector<std::string_view>& keys,
                                 const TraceContext& trace,
                                 std::vector<std::string>* vals,
                                 std::vector<std::uint8_t>* found,
                                 TracedExchange* exchange,
                                 std::string* err) {
  EncodeTracedMultiGetRequest(keys, trace, &request_);
  const double send_us = Timeline::Global().NowUs();
  if (!SendFrame(request_, err)) return false;
  if (!RecvFrame(&frame_, err)) return false;
  const double recv_us = Timeline::Global().NowUs();
  ServerTiming timing;
  if (!DecodeMultiGet(keys.size(), &trace, vals, found, &timing, err)) {
    return false;
  }
  if (exchange) {
    exchange->server = timing;
    exchange->client_send_us = send_us;
    exchange->client_recv_us = recv_us;
  }
  return true;
}

bool KvTcpClient::DecodeMultiGet(std::size_t num_keys,
                                 const TraceContext* trace,
                                 std::vector<std::string>* vals,
                                 std::vector<std::uint8_t>* found,
                                 ServerTiming* timing, std::string* err) {
  const char* op = trace ? "TMGET" : "MGET";
  std::string decode_err;
  std::uint64_t echoed_id = 0;
  if (!(trace ? DecodeTracedMultiGetResponse(frame_, &response_, &echoed_id,
                                             timing, &decode_err)
              : DecodeMultiGetResponse(frame_, &response_, &decode_err))) {
    return Fail(err, std::string("bad ") + op + " response: " + decode_err);
  }
  if (trace && echoed_id != trace->trace_id) {
    // A mismatched id means responses got paired with the wrong request —
    // the stream ordering is broken.
    return Fail(err, "TMGET response trace id mismatch");
  }
  if (response_.vals.size() != num_keys) {
    return Fail(err, std::string(op) + " response count mismatch");
  }
  // Overwrite the caller's strings in place: after the first call of a
  // given size this allocates only for values longer than the last ones.
  vals->resize(num_keys);
  for (std::size_t i = 0; i < num_keys; ++i) {
    (*vals)[i].assign(response_.vals[i]);
  }
  found->assign(response_.found.begin(), response_.found.end());
  return true;
}

bool KvTcpClient::Stats(StatsPairs* out, std::string* err) {
  EncodeStatsRequest(&request_);
  if (!SendFrame(request_, err)) return false;
  if (!RecvFrame(&frame_, err)) return false;
  std::string decode_err;
  if (!DecodeStatsResponse(frame_, out, &decode_err)) {
    return Fail(err, "bad STATS response: " + decode_err);
  }
  return true;
}

bool KvTcpClient::Metrics(std::string* text, std::string* err) {
  EncodeMetricsRequest(&request_);
  if (!SendFrame(request_, err)) return false;
  if (!RecvFrame(&frame_, err)) return false;
  std::string decode_err;
  if (!DecodeMetricsResponse(frame_, text, &decode_err)) {
    return Fail(err, "bad METRICS response: " + decode_err);
  }
  return true;
}

void KvTcpClient::Shutdown() {
  if (!fd_.valid()) return;
  EncodeShutdownRequest(&request_);
  SendFrame(request_, nullptr);
  fd_.reset();
}

// --- KvClusterClient ---

KvClusterClient::KvClusterClient(std::vector<Endpoint> endpoints,
                                 unsigned vnodes)
    : endpoints_(std::move(endpoints)),
      clients_(endpoints_.size()),
      up_(endpoints_.size(), 0),
      ring_(vnodes) {
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    ring_.AddServer(static_cast<std::uint32_t>(i));
  }
}

bool KvClusterClient::Connect(std::string* err) {
  std::string all_errors;
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    std::string e;
    if (clients_[i].Connect(endpoints_[i].host, endpoints_[i].port, &e)) {
      up_[i] = 1;
    } else {
      up_[i] = 0;
      if (!all_errors.empty()) all_errors += "; ";
      all_errors += "server " + std::to_string(i) + ": " + e;
    }
  }
  if (err) *err = all_errors;
  return num_up() > 0;
}

std::size_t KvClusterClient::num_up() const {
  std::size_t n = 0;
  for (const std::uint8_t u : up_) n += u;
  return n;
}

bool KvClusterClient::Set(std::string_view key, std::string_view val,
                          std::string* err) {
  const std::uint32_t server = ring_.ServerFor(key);
  if (!up_[server]) {
    if (err) *err = "server " + std::to_string(server) + " is down";
    return false;
  }
  const bool ok = clients_[server].Set(key, val, err);
  if (!clients_[server].connected()) up_[server] = 0;
  return ok;
}

bool KvClusterClient::MultiGet(const std::vector<std::string_view>& keys,
                               std::vector<std::string>* vals,
                               std::vector<std::uint8_t>* found,
                               std::vector<std::uint8_t>* error,
                               std::string* err) {
  vals->assign(keys.size(), std::string());
  found->assign(keys.size(), 0);
  error->assign(keys.size(), 0);
  if (keys.empty()) return true;

  const auto partitions = ring_.PartitionKeys(keys);
  std::vector<std::string_view> sub_keys;
  std::vector<std::string> sub_vals;
  std::vector<std::uint8_t> sub_found;
  bool any_ok = false;
  std::string first_err;
  for (const auto& [server, indices] : partitions) {
    if (!up_[server]) {
      for (const std::size_t i : indices) (*error)[i] = 1;
      if (first_err.empty()) {
        first_err = "server " + std::to_string(server) + " is down";
      }
      continue;
    }
    sub_keys.clear();
    for (const std::size_t i : indices) sub_keys.push_back(keys[i]);
    std::string sub_err;
    if (!clients_[server].MultiGet(sub_keys, &sub_vals, &sub_found,
                                   &sub_err)) {
      // The sub-request (not the whole batch) failed: flag its keys and
      // stop routing to this server.
      up_[server] = 0;
      for (const std::size_t i : indices) (*error)[i] = 1;
      if (first_err.empty()) {
        first_err = "server " + std::to_string(server) + ": " + sub_err;
      }
      continue;
    }
    for (std::size_t k = 0; k < indices.size(); ++k) {
      (*vals)[indices[k]] = std::move(sub_vals[k]);
      (*found)[indices[k]] = sub_found[k];
    }
    any_ok = true;
  }
  if (err) *err = first_err;
  return any_ok;
}

bool KvClusterClient::MultiGetTraced(
    const std::vector<std::string_view>& keys, const TraceContext& trace,
    std::vector<std::string>* vals, std::vector<std::uint8_t>* found,
    std::vector<std::uint8_t>* error,
    std::vector<std::pair<std::uint32_t, TracedExchange>>* exchanges,
    std::string* err) {
  vals->assign(keys.size(), std::string());
  found->assign(keys.size(), 0);
  error->assign(keys.size(), 0);
  if (exchanges) exchanges->clear();
  if (keys.empty()) return true;

  const auto partitions = ring_.PartitionKeys(keys);
  std::vector<std::string_view> sub_keys;
  std::vector<std::string> sub_vals;
  std::vector<std::uint8_t> sub_found;
  bool any_ok = false;
  std::string first_err;
  for (const auto& [server, indices] : partitions) {
    if (!up_[server]) {
      for (const std::size_t i : indices) (*error)[i] = 1;
      if (first_err.empty()) {
        first_err = "server " + std::to_string(server) + " is down";
      }
      continue;
    }
    sub_keys.clear();
    for (const std::size_t i : indices) sub_keys.push_back(keys[i]);
    TracedExchange exchange;
    std::string sub_err;
    if (!clients_[server].MultiGetTraced(sub_keys, trace, &sub_vals,
                                         &sub_found, &exchange, &sub_err)) {
      up_[server] = 0;
      for (const std::size_t i : indices) (*error)[i] = 1;
      if (first_err.empty()) {
        first_err = "server " + std::to_string(server) + ": " + sub_err;
      }
      continue;
    }
    for (std::size_t k = 0; k < indices.size(); ++k) {
      (*vals)[indices[k]] = std::move(sub_vals[k]);
      (*found)[indices[k]] = sub_found[k];
    }
    if (exchanges) exchanges->emplace_back(server, exchange);
    any_ok = true;
  }
  if (err) *err = first_err;
  return any_ok;
}

std::vector<StatsPairs> KvClusterClient::StatsAll() {
  std::vector<StatsPairs> all(endpoints_.size());
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    if (up_[i]) clients_[i].Stats(&all[i], nullptr);
  }
  return all;
}

void KvClusterClient::ShutdownAll() {
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    if (up_[i]) clients_[i].Shutdown();
    up_[i] = 0;
  }
}

void KvClusterClient::CloseAll() {
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    clients_[i].Close();
    up_[i] = 0;
  }
}

}  // namespace simdht
