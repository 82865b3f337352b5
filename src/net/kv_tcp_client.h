// Synchronous TCP client for the KVS wire protocol, plus a cluster-aware
// client that routes keys to N servers via consistent hashing.
//
// KvTcpClient is the single-endpoint mirror of kvs/client.h's KvClient:
// synchronous request/response over one connection, frames length-prefixed
// per kvs/protocol.h. Each call waits for its response by polling the
// socket for kPollBeforeSleep (net/wait_policy.h), then blocking in recv;
// a thread whose core is contended blocks at once (MayPollBeforeSleep).
//
// KvClusterClient implements the paper's Section VI-A request phase over
// real sockets: each key of a Multi-Get maps to a specific server through
// the consistent-hash ring, per-server sub-batches are sent, and results
// scatter back to the caller's key order. Server failures surface PER KEY
// (error[i]) rather than failing the whole batch — keys owned by live
// servers still return.
#ifndef SIMDHT_NET_KV_TCP_CLIENT_H_
#define SIMDHT_NET_KV_TCP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kvs/consistent_hash.h"
#include "kvs/protocol.h"
#include "net/socket.h"

namespace simdht {

// One traced Multi-Get exchange: the server-side receive/transmit
// timestamps (on the SERVER's timeline clock) plus the client-side
// bracketing timestamps (on the CLIENT's timeline clock). The pair of
// clock readings is exactly one NTP-style sync sample — simdht_tracemerge
// estimates each server's clock offset from the midpoints.
struct TracedExchange {
  ServerTiming server;
  double client_send_us = 0.0;
  double client_recv_us = 0.0;
};

class KvTcpClient {
 public:
  KvTcpClient() = default;

  bool Connect(const std::string& host, std::uint16_t port,
               std::string* err);
  bool connected() const { return fd_.valid(); }
  void Close() { fd_.reset(); }

  // Synchronous ops; false on transport/decode failure (the connection is
  // closed — a desynced stream cannot be reused).
  bool Set(std::string_view key, std::string_view val,
           std::string* err = nullptr);
  bool MultiGet(const std::vector<std::string_view>& keys,
                std::vector<std::string>* vals,
                std::vector<std::uint8_t>* found,
                std::string* err = nullptr);
  // Traced variant (kTracedMultiGet): carries `trace` on the wire and
  // fills `exchange` with the server's echoed rx/tx timestamps bracketed
  // by client-side send/recv timestamps. Requires a server that
  // advertises proto.trace_context in STATS; older servers close the
  // connection on the unknown opcode.
  bool MultiGetTraced(const std::vector<std::string_view>& keys,
                      const TraceContext& trace,
                      std::vector<std::string>* vals,
                      std::vector<std::uint8_t>* found,
                      TracedExchange* exchange,
                      std::string* err = nullptr);
  bool Stats(StatsPairs* out, std::string* err = nullptr);
  // Fetches the Prometheus text exposition over the KV wire (kMetrics).
  bool Metrics(std::string* text, std::string* err = nullptr);

  // Sends SHUTDOWN (stops the whole server process; fire-and-forget).
  void Shutdown();

 private:
  bool SendFrame(const Buffer& payload, std::string* err);
  // Waits for the next frame: polls for kPollBeforeSleep if
  // MayPollBeforeSleep (net/wait_policy.h), then blocks.
  bool RecvFrame(Buffer* frame, std::string* err);
  // Decodes frame_ as the MGET response (TMGET when `trace` is set, whose
  // id must echo back) to a `num_keys`-key request into response_, then
  // copies it into the caller's vectors, reusing their strings.
  bool DecodeMultiGet(std::size_t num_keys, const TraceContext* trace,
                      std::vector<std::string>* vals,
                      std::vector<std::uint8_t>* found, ServerTiming* timing,
                      std::string* err);
  bool Fail(std::string* err, const std::string& message);

  ScopedFd fd_;
  FrameAssembler assembler_;
  Buffer request_;
  Buffer wire_;
  Buffer frame_;
  MultiGetResponse response_;  // views into frame_
};

class KvClusterClient {
 public:
  struct Endpoint {
    std::string host;
    std::uint16_t port = 0;
  };

  // The ring covers EVERY endpoint (vnodes smooth the key split); an
  // endpoint that fails to connect stays on the ring and its keys surface
  // as per-key errors, mirroring how a real cluster degrades.
  explicit KvClusterClient(std::vector<Endpoint> endpoints,
                           unsigned vnodes = 64);

  // Connects to every endpoint. True when at least one server is up;
  // `err` collects the failures either way.
  bool Connect(std::string* err = nullptr);

  std::size_t num_endpoints() const { return endpoints_.size(); }
  std::size_t num_up() const;
  bool server_up(std::size_t i) const { return up_[i] != 0; }
  const ConsistentHashRing& ring() const { return ring_; }

  // Routed single-key Set. False when the owning server is down/fails.
  bool Set(std::string_view key, std::string_view val,
           std::string* err = nullptr);

  // Scatter/gather Multi-Get. All four out-vectors are resized to
  // keys.size(); error[i] != 0 means the server owning keys[i] was down or
  // the sub-request failed (found[i] is 0 in that case). Returns true when
  // at least one sub-request succeeded (or the batch needed none).
  bool MultiGet(const std::vector<std::string_view>& keys,
                std::vector<std::string>* vals,
                std::vector<std::uint8_t>* found,
                std::vector<std::uint8_t>* error,
                std::string* err = nullptr);

  // Traced scatter/gather: every sub-request goes out as kTracedMultiGet
  // with the same trace context, and `exchanges` (when non-null) collects
  // one (server index, TracedExchange) pair per sub-request that
  // succeeded — the clock-sync samples for that request's servers.
  bool MultiGetTraced(const std::vector<std::string_view>& keys,
                      const TraceContext& trace,
                      std::vector<std::string>* vals,
                      std::vector<std::uint8_t>* found,
                      std::vector<std::uint8_t>* error,
                      std::vector<std::pair<std::uint32_t, TracedExchange>>*
                          exchanges,
                      std::string* err = nullptr);

  // Per-endpoint STATS snapshot; entries for down servers are empty.
  std::vector<StatsPairs> StatsAll();

  // Sends SHUTDOWN to every live server (stops the processes).
  void ShutdownAll();

  void CloseAll();

 private:
  std::vector<Endpoint> endpoints_;
  std::vector<KvTcpClient> clients_;
  std::vector<std::uint8_t> up_;
  ConsistentHashRing ring_;
};

}  // namespace simdht

#endif  // SIMDHT_NET_KV_TCP_CLIENT_H_
