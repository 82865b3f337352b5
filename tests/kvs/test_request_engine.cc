// The request engine seen through both of its transports: one scripted
// frame sequence goes through a simulated KvServer channel and through a
// KvTcpServer socket, and both must answer byte for byte alike (TMGET's
// server rx/tx stamps masked) and agree on the catalogue counters. Also
// runs the simulated server's workers concurrently against the engine they
// share (suite names contain "KvRequestEngine" for the tsan preset).
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "kvs/client.h"
#include "kvs/memc3_backend.h"
#include "kvs/request_engine.h"
#include "kvs/server.h"
#include "net/kv_tcp_server.h"
#include "net/socket.h"

namespace simdht {
namespace {

// SET, MSET, MGET (hits, a miss and an empty key), TMGET, STATS; then a
// frame with an unknown opcode.
std::vector<Buffer> ScriptedFrames() {
  std::vector<Buffer> frames(6);
  EncodeSetRequest("alpha", "one", &frames[0]);
  EncodeMultiSetRequest({"beta", "gamma"}, {"two", "three"}, &frames[1]);
  EncodeMultiGetRequest({"alpha", "missing", "", "gamma"}, &frames[2]);
  EncodeTracedMultiGetRequest({"beta", "nope"}, TraceContext{0x1234, false},
                              &frames[3]);
  EncodeStatsRequest(&frames[4]);
  frames[5] = {0x7F, 0x01, 0x02};
  return frames;
}

constexpr std::size_t kAnswered = 5;  // frames before the malformed one

// The TMGET response's server rx/tx stamps (f64 pair after opcode, count
// and trace id) differ between any two runs.
void MaskServerTiming(Buffer* response) {
  ASSERT_GE(response->size(), 29u);
  std::memset(response->data() + 13, 0, 16);
}

const char* const kCounters[] = {
    kvs_metrics::kBatches,     kvs_metrics::kRequests,
    kvs_metrics::kKeys,        kvs_metrics::kHits,
    kvs_metrics::kConnections, kvs_metrics::kProtocolErrors};

TEST(KvRequestEngineParity, SimAndTcpAnswerAlike) {
  const std::vector<Buffer> frames = ScriptedFrames();

  // Simulated transport: one message is one frame.
  Memc3Backend sim_backend(1 << 12, 16 << 20);
  Channel channel(WireModel::Loopback());
  KvServer sim(&sim_backend, {&channel});
  sim.Start();
  std::vector<Buffer> sim_responses(kAnswered);
  for (std::size_t i = 0; i < kAnswered; ++i) {
    channel.ClientSend(frames[i]);
    ASSERT_TRUE(channel.ClientRecv(&sim_responses[i])) << i;
  }
  channel.ClientSend(frames[kAnswered]);
  // The malformed frame got no answer, and the worker keeps serving.
  KvClient client(&channel);
  EXPECT_TRUE(client.Set("after", "garbage"));
  client.Shutdown();
  sim.Join();

  // TCP: length-prefixed frames over a socket.
  Memc3Backend tcp_backend(1 << 12, 16 << 20);
  KvTcpServer tcp(&tcp_backend);
  std::string err;
  ASSERT_TRUE(tcp.StartBackground(&err)) << err;
  ScopedFd fd(ConnectTcp("127.0.0.1", tcp.port(), &err));
  ASSERT_TRUE(fd) << err;
  FrameAssembler assembler;
  const auto recv_frame = [&](Buffer* frame) {
    for (;;) {
      const FrameAssembler::Result r = assembler.Next(frame);
      if (r == FrameAssembler::Result::kFrame) return true;
      std::uint8_t chunk[4096];
      const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      assembler.Append(chunk, static_cast<std::size_t>(n));
    }
  };
  const auto send_frame = [&](const Buffer& payload) {
    Buffer wire;
    AppendFrame(payload, &wire);
    ASSERT_EQ(::send(fd.get(), wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
  };
  std::vector<Buffer> tcp_responses(kAnswered);
  for (std::size_t i = 0; i < kAnswered; ++i) {
    send_frame(frames[i]);
    ASSERT_TRUE(recv_frame(&tcp_responses[i])) << i;
  }
  send_frame(frames[kAnswered]);
  Buffer none;
  EXPECT_FALSE(recv_frame(&none)) << "TCP closes on a malformed frame";
  tcp.Stop();
  tcp.Join();

  // SET, MSET, MGET and TMGET answers match byte for byte.
  MaskServerTiming(&sim_responses[3]);
  MaskServerTiming(&tcp_responses[3]);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sim_responses[i], tcp_responses[i]) << "frame " << i;
  }
  MultiGetResponse mget;
  ASSERT_TRUE(DecodeMultiGetResponse(tcp_responses[2], &mget));
  EXPECT_EQ(mget.found, (std::vector<std::uint8_t>{1, 0, 0, 1}));
  EXPECT_EQ(mget.vals[3], "three");

  // STATS carries the same keys; counters and shard tallies agree (phase
  // times and the TSC rate are measurements, not compared).
  StatsPairs sim_stats, tcp_stats;
  ASSERT_TRUE(DecodeStatsResponse(sim_responses[4], &sim_stats));
  ASSERT_TRUE(DecodeStatsResponse(tcp_responses[4], &tcp_stats));
  ASSERT_EQ(sim_stats.size(), tcp_stats.size());
  for (std::size_t i = 0; i < sim_stats.size(); ++i) {
    const std::string& key = sim_stats[i].first;
    EXPECT_EQ(key, tcp_stats[i].first);
    if (key.find("_ns") == std::string::npos &&
        key.find("win.") != 0 && key != "tsc_ghz") {
      EXPECT_EQ(sim_stats[i].second, tcp_stats[i].second) << key;
    }
  }

  // The catalogue counters after the whole script, malformed frame
  // included.
  const MetricsSnapshot sim_snap = sim.Metrics();
  const MetricsSnapshot tcp_snap = tcp.Metrics();
  for (const char* counter : kCounters) {
    EXPECT_EQ(sim_snap.counter(counter), tcp_snap.counter(counter))
        << counter;
  }
  EXPECT_EQ(tcp_snap.counter(kvs_metrics::kRequests), 2u);
  EXPECT_EQ(tcp_snap.counter(kvs_metrics::kKeys), 6u);
  EXPECT_EQ(tcp_snap.counter(kvs_metrics::kHits), 3u);
  EXPECT_EQ(tcp_snap.counter(kvs_metrics::kProtocolErrors), 1u);
}

TEST(KvRequestEngineParity, SimWorkersShareOneEngine) {
  Memc3Backend backend(1 << 12, 16 << 20);
  Channel ch0(WireModel::Loopback());
  Channel ch1(WireModel::Loopback());
  KvServer server(&backend, {&ch0, &ch1});
  server.Start();
  ASSERT_TRUE(KvClient(&ch0).Set("shared", "v"));
  constexpr int kRequests = 200;
  const auto drive = [](Channel* channel) {
    KvClient client(channel);
    std::vector<std::string> vals;
    std::vector<std::uint8_t> found;
    for (int i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(client.MultiGet({"shared", "absent"}, &vals, &found));
      ASSERT_EQ(found, (std::vector<std::uint8_t>{1, 0}));
    }
    client.Shutdown();
  };
  std::thread t0(drive, &ch0);
  std::thread t1(drive, &ch1);
  t0.join();
  t1.join();
  server.Join();

  // One registry and one set of windows for both workers; every batch is
  // one client's request.
  const MetricsSnapshot snap = server.Metrics();
  EXPECT_EQ(snap.counter(kvs_metrics::kBatches), 2u * kRequests);
  EXPECT_EQ(snap.counter(kvs_metrics::kKeys), 4u * kRequests);
  EXPECT_EQ(snap.counter(kvs_metrics::kHits), 2u * kRequests);
  EXPECT_EQ(snap.counter(kvs_metrics::kConnections), 2u);
  EXPECT_EQ(snap.histograms.at(kvs_metrics::kBatchConnections).max(), 1u);
  EXPECT_EQ(snap.histograms.at(kvs_metrics::kParseNs).count(),
            2u * kRequests);
}

TEST(KvRequestEngineParity, EmptyFrameIsMalformed) {
  Memc3Backend backend(1 << 10, 8 << 20);
  KvRequestEngine engine(&backend);
  KvRequestEngine::Worker worker(&engine);
  const KvRequestEngine::ReplySink sink{[](std::uint64_t, const Buffer&) {},
                                        [] {}};
  Buffer reply;
  EXPECT_EQ(worker.Handle(Buffer{}, 1, sink, &reply),
            KvRequestEngine::Verdict::kMalformed);
  EXPECT_EQ(engine.Metrics().counter(kvs_metrics::kProtocolErrors), 1u);
  Buffer shutdown;
  EncodeShutdownRequest(&shutdown);
  EXPECT_EQ(worker.Handle(shutdown, 1, sink, &reply),
            KvRequestEngine::Verdict::kShutdown);
}

}  // namespace
}  // namespace simdht
