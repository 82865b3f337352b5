// KvTcpServer + KvTcpClient over loopback: round trips, remote stats,
// malformed-input handling, the deterministic proof that Multi-Get frames
// from DIFFERENT connections coalesce into one backend batch, in-order
// replies to pipelined frames (and no batch split by another connection's
// write), a peer that vanishes during a mid-drain flush, and the bounds of
// both ends' poll-then-sleep wait (net/wait_policy.h).
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "kvs/memc3_backend.h"
#include "kvs/simd_backend.h"
#include "kvs/protocol.h"
#include "net/kv_tcp_client.h"
#include "net/kv_tcp_server.h"
#include "net/socket.h"
#include "net/wait_policy.h"

namespace simdht {
namespace {

std::vector<std::string_view> Views(const std::vector<std::string>& keys) {
  return std::vector<std::string_view>(keys.begin(), keys.end());
}

// Blocking read of the next frame on a raw socket.
void ReadFrame(int fd, FrameAssembler* assembler, Buffer* frame) {
  for (;;) {
    const FrameAssembler::Result r = assembler->Next(frame, nullptr);
    if (r == FrameAssembler::Result::kFrame) return;
    ASSERT_EQ(r, FrameAssembler::Result::kNeedMore);
    std::uint8_t chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0);
    assembler->Append(chunk, static_cast<std::size_t>(n));
  }
}

double CpuMs(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

TEST(KvTcpServer, SetMultiGetStatsRoundTrip) {
  Memc3Backend backend(1 << 12, 16 << 20);
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.StartBackground(&err)) << err;
  ASSERT_NE(server.port(), 0);

  KvTcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &err)) << err;
  ASSERT_TRUE(client.Set("alpha", "one", &err)) << err;
  ASSERT_TRUE(client.Set("beta", "two", &err)) << err;

  std::vector<std::string> keys = {"alpha", "missing", "beta"};
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  ASSERT_TRUE(client.MultiGet(Views(keys), &vals, &found, &err)) << err;
  ASSERT_EQ(vals.size(), 3u);
  EXPECT_EQ(found, (std::vector<std::uint8_t>{1, 0, 1}));
  EXPECT_EQ(vals[0], "one");
  EXPECT_EQ(vals[1], "");
  EXPECT_EQ(vals[2], "two");

  // Remote stats: the serving metrics travel over the same wire.
  StatsPairs stats;
  ASSERT_TRUE(client.Stats(&stats, &err)) << err;
  double batches = -1, keys_served = -1;
  for (const auto& [name, value] : stats) {
    if (name == "batches") batches = value;
    if (name == "keys") keys_served = value;
  }
  EXPECT_GE(batches, 1.0);
  EXPECT_GE(keys_served, 3.0);

  client.Close();
  server.Stop();
  server.Join();
}

TEST(KvTcpServer, CrossConnectionFramesBatchIntoOneProbe) {
  Memc3Backend backend(1 << 12, 16 << 20);
  backend.Set("k-conn1", "v1");
  backend.Set("k-conn2", "v2");
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.Listen(&err)) << err;

  // Two raw connections; the server is driven by hand with PollOnce so the
  // dispatch cycles are deterministic.
  ScopedFd c1(ConnectTcp("127.0.0.1", server.port(), &err));
  ASSERT_TRUE(c1) << err;
  ScopedFd c2(ConnectTcp("127.0.0.1", server.port(), &err));
  ASSERT_TRUE(c2) << err;
  for (int i = 0; i < 50 && server.num_connections() < 2; ++i) {
    server.PollOnce(100);
  }
  ASSERT_EQ(server.num_connections(), 2u);

  // One Multi-Get frame on each connection, both in flight BEFORE the next
  // dispatch cycle runs.
  const auto send_mget = [](int fd, std::string_view key) {
    Buffer payload, wire;
    EncodeMultiGetRequest({key}, &payload);
    AppendFrame(payload, &wire);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
  };
  send_mget(c1.get(), "k-conn1");
  send_mget(c2.get(), "k-conn2");
  // Loopback delivery is quick but not instant; wait until both sockets are
  // readable server-side, then run ONE cycle.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.PollOnce(1000);

  // Both frames were served by a single backend MultiGet: one batch, two
  // keys, two distinct connections in it.
  const MetricsSnapshot snap = server.Metrics();
  EXPECT_EQ(snap.counter(kvs_metrics::kBatches), 1u);
  EXPECT_EQ(snap.counter(kvs_metrics::kKeys), 2u);
  EXPECT_EQ(snap.counter(kvs_metrics::kHits), 2u);
  const auto occupancy =
      snap.histograms.find(kvs_metrics::kBatchConnections);
  ASSERT_NE(occupancy, snap.histograms.end());
  EXPECT_EQ(occupancy->second.count(), 1u);
  EXPECT_EQ(occupancy->second.max(), 2u);

  // Each client still receives its own (correct) response.
  const auto read_response = [](int fd, std::string_view want) {
    FrameAssembler assembler;
    Buffer frame;
    ASSERT_NO_FATAL_FAILURE(ReadFrame(fd, &assembler, &frame));
    MultiGetResponse response;
    std::string decode_err;
    ASSERT_TRUE(DecodeMultiGetResponse(frame, &response, &decode_err))
        << decode_err;
    ASSERT_EQ(response.vals.size(), 1u);
    EXPECT_EQ(response.found[0], 1);
    EXPECT_EQ(response.vals[0], want);
  };
  read_response(c1.get(), "v1");
  read_response(c2.get(), "v2");

  // Per-phase histograms saw the flush.
  const auto probe = snap.histograms.find(kvs_metrics::kIndexProbeNs);
  ASSERT_NE(probe, snap.histograms.end());
  EXPECT_EQ(probe->second.count(), 1u);
}

TEST(KvTcpServer, ThreeConnectionsShareAFlushPastMaxBatchKeys) {
  // Three connections' frames land in one dispatch cycle; the third pushes
  // the batch past max_batch_keys, so they flush together mid-cycle. The
  // keys travel through the server's key arena and each response is
  // encoded from its own slice of the combined batch: every connection must
  // get exactly its own values, in order — misses and an empty value
  // included, on plain and traced frames alike.
  SimdBackend backend(SimdBackend::ScalarBucketCuckoo(), 1 << 12, 16 << 20);
  KvTcpServerOptions options;
  options.max_batch_keys = 10;
  KvTcpServer server(&backend, options);
  std::string err;
  ASSERT_TRUE(server.Listen(&err)) << err;

  constexpr int kConns = 3;
  constexpr int kKeysPerFrame = 4;
  std::vector<ScopedFd> conns;
  for (int c = 0; c < kConns; ++c) {
    conns.emplace_back(ConnectTcp("127.0.0.1", server.port(), &err));
    ASSERT_TRUE(conns.back()) << err;
  }
  for (int i = 0; i < 50 && server.num_connections() < kConns; ++i) {
    server.PollOnce(100);
  }
  ASSERT_EQ(server.num_connections(), static_cast<std::size_t>(kConns));

  // Connection c asks for keys "c<c>-k<j>"; k3 is never stored and
  // connection 1's k1 holds an empty value.
  std::vector<std::string> keys[kConns], want[kConns];
  std::vector<std::uint8_t> want_found[kConns];
  for (int c = 0; c < kConns; ++c) {
    for (int j = 0; j < kKeysPerFrame; ++j) {
      const std::string key =
          "c" + std::to_string(c) + "-k" + std::to_string(j);
      const std::string val =
          c == 1 && j == 1 ? std::string() : "value-of-" + key;
      keys[c].push_back(key);
      const bool stored = j != 3;
      if (stored) {
        ASSERT_TRUE(backend.Set(key, val));
      }
      want[c].push_back(stored ? val : std::string());
      want_found[c].push_back(stored ? 1 : 0);
    }
    Buffer payload, wire;
    if (c == 2) {
      EncodeTracedMultiGetRequest(Views(keys[c]), TraceContext{77, false},
                                  &payload);
    } else {
      EncodeMultiGetRequest(Views(keys[c]), &payload);
    }
    AppendFrame(payload, &wire);
    ASSERT_EQ(::send(conns[c].get(), wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.PollOnce(1000);

  const MetricsSnapshot snap = server.Metrics();
  EXPECT_EQ(snap.counter(kvs_metrics::kBatches), 1u);
  EXPECT_EQ(snap.counter(kvs_metrics::kKeys),
            static_cast<std::uint64_t>(kConns * kKeysPerFrame));
  EXPECT_GT(snap.counter(kvs_metrics::kKeys), options.max_batch_keys);
  const auto occupancy =
      snap.histograms.find(kvs_metrics::kBatchConnections);
  ASSERT_NE(occupancy, snap.histograms.end());
  EXPECT_EQ(occupancy->second.max(), static_cast<std::uint64_t>(kConns));

  for (int c = 0; c < kConns; ++c) {
    FrameAssembler assembler;
    Buffer frame;
    ASSERT_NO_FATAL_FAILURE(ReadFrame(conns[c].get(), &assembler, &frame));
    MultiGetResponse response;
    std::string decode_err;
    if (c == 2) {
      std::uint64_t trace_id = 0;
      ServerTiming timing;
      ASSERT_TRUE(DecodeTracedMultiGetResponse(frame, &response, &trace_id,
                                               &timing, &decode_err))
          << decode_err;
      EXPECT_EQ(trace_id, 77u);
    } else {
      ASSERT_TRUE(DecodeMultiGetResponse(frame, &response, &decode_err))
          << decode_err;
    }
    ASSERT_EQ(response.vals.size(), static_cast<std::size_t>(kKeysPerFrame));
    EXPECT_EQ(response.found, want_found[c]) << "connection " << c;
    for (int j = 0; j < kKeysPerFrame; ++j) {
      EXPECT_EQ(response.vals[j], want[c][j])
          << "connection " << c << " key " << j;
    }
  }
}

TEST(KvTcpServer, OversizedLengthPrefixClosesConnection) {
  Memc3Backend backend(1 << 12, 16 << 20);
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.Listen(&err)) << err;

  ScopedFd c(ConnectTcp("127.0.0.1", server.port(), &err));
  ASSERT_TRUE(c) << err;
  for (int i = 0; i < 50 && server.num_connections() < 1; ++i) {
    server.PollOnce(100);
  }
  ASSERT_EQ(server.num_connections(), 1u);

  // Length prefix far over kMaxFrameBytes: the stream is poisoned and the
  // server must drop the connection instead of allocating 4 GiB.
  const std::uint8_t evil[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::send(c.get(), evil, sizeof(evil), 0), 4);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.PollOnce(1000);

  EXPECT_EQ(server.num_connections(), 0u);
  EXPECT_EQ(server.Metrics().counter(kvs_metrics::kProtocolErrors), 1u);
  // Client sees EOF.
  std::uint8_t buf[8];
  EXPECT_EQ(::recv(c.get(), buf, sizeof(buf), 0), 0);
}

TEST(KvTcpServer, GarbageOpcodeClosesConnectionOthersSurvive) {
  Memc3Backend backend(1 << 12, 16 << 20);
  backend.Set("stay", "alive");
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.StartBackground(&err)) << err;

  KvTcpClient good;
  ASSERT_TRUE(good.Connect("127.0.0.1", server.port(), &err)) << err;

  // A well-framed payload with a nonsense opcode: only this connection dies.
  ScopedFd bad(ConnectTcp("127.0.0.1", server.port(), &err));
  ASSERT_TRUE(bad) << err;
  Buffer payload = {0x77, 0, 0, 0, 0};
  Buffer wire;
  AppendFrame(payload, &wire);
  ASSERT_EQ(::send(bad.get(), wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  std::uint8_t buf[8];
  EXPECT_EQ(::recv(bad.get(), buf, sizeof(buf), 0), 0);  // EOF

  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  ASSERT_TRUE(good.MultiGet({"stay"}, &vals, &found, &err)) << err;
  EXPECT_EQ(found, (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(vals[0], "alive");

  good.Close();
  server.Stop();
  server.Join();
}

TEST(KvTcpServer, ShutdownFrameStopsServer) {
  Memc3Backend backend(1 << 12, 16 << 20);
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.StartBackground(&err)) << err;

  KvTcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &err)) << err;
  client.Shutdown();
  server.Join();  // returns because the SHUTDOWN frame stopped the loop
  SUCCEED();
}

TEST(KvTcpServer, MidFrameFragmentationIsReassembled) {
  Memc3Backend backend(1 << 12, 16 << 20);
  backend.Set("fragmented-key", "fragmented-value");
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.Listen(&err)) << err;

  ScopedFd c(ConnectTcp("127.0.0.1", server.port(), &err));
  ASSERT_TRUE(c) << err;
  for (int i = 0; i < 50 && server.num_connections() < 1; ++i) {
    server.PollOnce(100);
  }

  Buffer payload, wire;
  EncodeMultiGetRequest({"fragmented-key"}, &payload);
  AppendFrame(payload, &wire);
  // Dribble the frame one byte per dispatch cycle: no flush may happen
  // before the final byte, exactly one after it.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ASSERT_EQ(::send(c.get(), wire.data() + i, 1, 0), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    server.PollOnce(200);
    const std::uint64_t batches =
        server.Metrics().counter(kvs_metrics::kBatches);
    EXPECT_EQ(batches, i + 1 == wire.size() ? 1u : 0u) << "byte " << i;
  }

  FrameAssembler assembler;
  Buffer frame;
  ASSERT_NO_FATAL_FAILURE(ReadFrame(c.get(), &assembler, &frame));
  MultiGetResponse response;
  ASSERT_TRUE(DecodeMultiGetResponse(frame, &response, nullptr));
  ASSERT_EQ(response.vals.size(), 1u);
  EXPECT_EQ(response.vals[0], "fragmented-value");
}

TEST(KvTcpServer, PipelinedFramesAreAnsweredInOrder) {
  Memc3Backend backend(1 << 12, 16 << 20);
  ASSERT_TRUE(backend.Set("k", "old"));
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.Listen(&err)) << err;
  ScopedFd c(ConnectTcp("127.0.0.1", server.port(), &err));
  ASSERT_TRUE(c) << err;
  for (int i = 0; i < 50 && server.num_connections() < 1; ++i) {
    server.PollOnce(100);
  }
  ASSERT_EQ(server.num_connections(), 1u);

  // MGET(k), SET(k), MGET(k) in one send, handled in one dispatch cycle.
  Buffer payload, wire;
  EncodeMultiGetRequest({"k"}, &payload);
  AppendFrame(payload, &wire);
  EncodeSetRequest("k", "new", &payload);
  AppendFrame(payload, &wire);
  EncodeMultiGetRequest({"k"}, &payload);
  AppendFrame(payload, &wire);
  ASSERT_EQ(::send(c.get(), wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.PollOnce(1000);

  // Replies in request order; the first MGET read before the SET ran.
  FrameAssembler assembler;
  Buffer frame;
  MultiGetResponse mget;
  ASSERT_NO_FATAL_FAILURE(ReadFrame(c.get(), &assembler, &frame));
  ASSERT_TRUE(DecodeMultiGetResponse(frame, &mget, &err)) << err;
  ASSERT_EQ(mget.vals.size(), 1u);
  EXPECT_EQ(mget.vals[0], "old");
  ASSERT_NO_FATAL_FAILURE(ReadFrame(c.get(), &assembler, &frame));
  bool ok = false;
  ASSERT_TRUE(DecodeSetResponse(frame, &ok, &err)) << err;
  EXPECT_TRUE(ok);
  ASSERT_NO_FATAL_FAILURE(ReadFrame(c.get(), &assembler, &frame));
  ASSERT_TRUE(DecodeMultiGetResponse(frame, &mget, &err)) << err;
  ASSERT_EQ(mget.vals.size(), 1u);
  EXPECT_EQ(mget.vals[0], "new");
}

TEST(KvTcpServer, WriteOnAnotherConnectionDoesNotSplitTheBatch) {
  Memc3Backend backend(1 << 12, 16 << 20);
  ASSERT_TRUE(backend.Set("a", "va"));
  ASSERT_TRUE(backend.Set("c", "vc"));
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.Listen(&err)) << err;
  ScopedFd conns[3];
  for (ScopedFd& c : conns) {
    c = ScopedFd(ConnectTcp("127.0.0.1", server.port(), &err));
    ASSERT_TRUE(c) << err;
  }
  for (int i = 0; i < 50 && server.num_connections() < 3; ++i) {
    server.PollOnce(100);
  }
  ASSERT_EQ(server.num_connections(), 3u);

  // MGET on the first connection, SET on the second, MGET on the third,
  // all read in one dispatch cycle.
  const auto send_payload = [](int fd, const Buffer& payload) {
    Buffer wire;
    AppendFrame(payload, &wire);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
  };
  Buffer payload;
  EncodeMultiGetRequest({"a"}, &payload);
  send_payload(conns[0].get(), payload);
  EncodeSetRequest("b", "vb", &payload);
  send_payload(conns[1].get(), payload);
  EncodeMultiGetRequest({"c"}, &payload);
  send_payload(conns[2].get(), payload);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.PollOnce(1000);

  // The SET's connection had nothing pending, so both Multi-Gets shared
  // one backend batch.
  const MetricsSnapshot snap = server.Metrics();
  EXPECT_EQ(snap.counter(kvs_metrics::kBatches), 1u);
  EXPECT_EQ(snap.counter(kvs_metrics::kKeys), 2u);
  FrameAssembler assembler[3];
  Buffer frame;
  MultiGetResponse mget;
  ASSERT_NO_FATAL_FAILURE(ReadFrame(conns[0].get(), &assembler[0], &frame));
  ASSERT_TRUE(DecodeMultiGetResponse(frame, &mget, &err)) << err;
  EXPECT_EQ(mget.vals, (std::vector<std::string_view>{"va"}));
  ASSERT_NO_FATAL_FAILURE(ReadFrame(conns[1].get(), &assembler[1], &frame));
  bool ok = false;
  ASSERT_TRUE(DecodeSetResponse(frame, &ok, &err)) << err;
  EXPECT_TRUE(ok);
  ASSERT_NO_FATAL_FAILURE(ReadFrame(conns[2].get(), &assembler[2], &frame));
  ASSERT_TRUE(DecodeMultiGetResponse(frame, &mget, &err)) << err;
  EXPECT_EQ(mget.vals, (std::vector<std::string_view>{"vc"}));
}

TEST(KvTcpServer, PeerGoneDuringFlushBeforeGarbageFrameKeepsServing) {
  Memc3Backend backend(1 << 12, 16 << 20);
  ASSERT_TRUE(backend.Set("k", "old"));
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.Listen(&err)) << err;
  {
    ScopedFd c(ConnectTcp("127.0.0.1", server.port(), &err));
    ASSERT_TRUE(c) << err;
    for (int i = 0; i < 50 && server.num_connections() < 1; ++i) {
      server.PollOnce(100);
    }
    ASSERT_EQ(server.num_connections(), 1u);
    // MGET, SET, MGET and a garbage frame in one send, then close. The
    // flush before the SET writes to a closed peer, which answers with a
    // reset; the flush before the garbage frame then fails to send and
    // closes the connection, which the garbage frame would close again.
    Buffer payload, wire;
    EncodeMultiGetRequest({"k"}, &payload);
    AppendFrame(payload, &wire);
    EncodeSetRequest("k", "new", &payload);
    AppendFrame(payload, &wire);
    EncodeMultiGetRequest({"k"}, &payload);
    AppendFrame(payload, &wire);
    AppendFrame(Buffer{0x77, 0, 0, 0, 0}, &wire);
    ASSERT_EQ(::send(c.get(), wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (int i = 0; i < 50 && server.num_connections() > 0; ++i) {
    server.PollOnce(100);
  }
  EXPECT_EQ(server.num_connections(), 0u);
  EXPECT_EQ(server.Metrics().counter(kvs_metrics::kProtocolErrors), 1u);

  // The server still serves a second client.
  ASSERT_TRUE(server.StartBackground(&err)) << err;
  KvTcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &err)) << err;
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  ASSERT_TRUE(client.MultiGet({"k"}, &vals, &found, &err)) << err;
  EXPECT_EQ(vals, (std::vector<std::string>{"new"}));
  client.Close();
  server.Stop();
  server.Join();
}

TEST(KvTcpClient, MultiGetReusesCallerVectors) {
  Memc3Backend backend(1 << 12, 16 << 20);
  for (int i = 0; i < 200; ++i) {
    // Value lengths vary, so a reused string both grows and shrinks.
    const std::string val(1 + (i * 7) % 50, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(backend.Set("key-" + std::to_string(i), val));
  }
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.StartBackground(&err)) << err;
  KvTcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &err)) << err;

  const auto batch = [](int first, int n) {
    std::vector<std::string> keys;
    for (int i = first; i < first + n; ++i) {
      keys.push_back(i % 10 == 3 ? "absent-" + std::to_string(i)
                                 : "key-" + std::to_string(i));
    }
    return keys;
  };
  const std::vector<std::vector<std::string>> calls = {
      batch(0, 96),
      {"key-150", "absent-x", "key-7"},
      {"absent-1", "absent-2", "absent-3", "absent-4", "absent-5"},
      batch(100, 96),
  };
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  for (std::size_t c = 0; c < calls.size(); ++c) {
    SCOPED_TRACE("call " + std::to_string(c));
    const std::vector<std::string_view> keys = Views(calls[c]);
    ASSERT_TRUE(client.MultiGet(keys, &vals, &found, &err)) << err;
    std::vector<std::string> fresh_vals;
    std::vector<std::uint8_t> fresh_found;
    ASSERT_TRUE(client.MultiGet(keys, &fresh_vals, &fresh_found, &err))
        << err;
    EXPECT_EQ(vals, fresh_vals);
    EXPECT_EQ(found, fresh_found);
    ASSERT_EQ(vals.size(), keys.size());
    ASSERT_EQ(found.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(found[i] != 0, keys[i].substr(0, 4) == "key-") << keys[i];
      if (!found[i]) {
        EXPECT_TRUE(vals[i].empty()) << keys[i];
      }
    }
  }
  client.Close();
  server.Stop();
  server.Join();
}

TEST(KvTcpServer, IdleServerStopsPollingAfterItsBudget) {
  Memc3Backend backend(1 << 12, 16 << 20);
  ASSERT_TRUE(backend.Set("k", "v"));
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.StartBackground(&err)) << err;
  KvTcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &err)) << err;
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client.MultiGet({"k"}, &vals, &found, &err)) << err;
  }

  // The server thread polls for kPollBeforeSleep after the last request,
  // then blocks; this thread sleeps. A server that kept polling would add
  // ~300 ms of CPU time.
  const double cpu0 = CpuMs(CLOCK_PROCESS_CPUTIME_ID);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu_ms = CpuMs(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  EXPECT_LT(cpu_ms, 30.0);

  client.Close();
  server.Stop();
  server.Join();
}

TEST(KvTcpClient, LateReplyArrivesWithoutPollingThroughTheWait) {
  // A hand-driven peer that answers one MGET 20 ms after reading it.
  std::uint16_t port = 0;
  std::string err;
  ScopedFd listener(ListenTcp("127.0.0.1", 0, &port, &err));
  ASSERT_TRUE(listener) << err;
  constexpr auto kDelay = std::chrono::milliseconds(20);
  std::thread peer([&] {
    pollfd pfd{listener.get(), POLLIN, 0};
    if (::poll(&pfd, 1, 5000) != 1) return;
    ScopedFd conn(::accept(listener.get(), nullptr, nullptr));
    if (!conn) return;
    FrameAssembler assembler;
    Buffer frame;
    ReadFrame(conn.get(), &assembler, &frame);
    std::this_thread::sleep_for(kDelay);
    Buffer payload, wire;
    EncodeMultiGetResponse({"late-value"}, {1}, &payload);
    AppendFrame(payload, &wire);
    ::send(conn.get(), wire.data(), wire.size(), MSG_NOSIGNAL);
  });

  KvTcpClient client;
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  const bool connected = client.Connect("127.0.0.1", port, &err);
  const auto wall0 = std::chrono::steady_clock::now();
  const double cpu0 = CpuMs(CLOCK_THREAD_CPUTIME_ID);
  const bool ok = connected && client.MultiGet({"k"}, &vals, &found, &err);
  const double cpu_ms = CpuMs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  const auto waited = std::chrono::steady_clock::now() - wall0;
  peer.join();

  ASSERT_TRUE(ok) << err;
  EXPECT_EQ(found, (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(vals, (std::vector<std::string>{"late-value"}));
  EXPECT_GE(waited, kDelay);
  // Polling ends after kPollBeforeSleep; the rest of the wait blocks.
  EXPECT_LT(cpu_ms, 5.0);
}

TEST(KvTcpServer, StopEndsRunWhilePolling) {
  Memc3Backend backend(1 << 12, 16 << 20);
  ASSERT_TRUE(backend.Set("k", "v"));
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.StartBackground(&err)) << err;

  // A closed-loop client keeps the server inside its polling budget, for
  // longer than a new thread's first PollGate check, after which a server
  // thread with a core to itself polls.
  std::atomic<int> requests{0};
  std::thread load([&server, &requests] {
    KvTcpClient client;
    std::string e;
    if (!client.Connect("127.0.0.1", server.port(), &e)) return;
    std::vector<std::string> vals;
    std::vector<std::uint8_t> found;
    while (client.MultiGet({"k"}, &vals, &found, &e)) ++requests;
  });
  const auto start = std::chrono::steady_clock::now();
  const auto loaded = start + 2 * PollGate::kMinBackoff;
  const auto deadline = start + std::chrono::seconds(10);
  while ((requests.load() < 200 || std::chrono::steady_clock::now() < loaded) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int served = requests.load();

  const auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  server.Join();
  const auto took = std::chrono::steady_clock::now() - t0;
  load.join();  // Run() closed its connection on the way out
  EXPECT_GE(served, 200);
  EXPECT_LT(took, std::chrono::milliseconds(250));
}

}  // namespace
}  // namespace simdht
