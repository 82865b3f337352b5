#include <gtest/gtest.h>

#include "kvs/protocol.h"

namespace simdht {
namespace {

TEST(Protocol, SetRequestRoundTrip) {
  Buffer buf;
  EncodeSetRequest("mykey", "myvalue", &buf);
  Opcode op;
  ASSERT_TRUE(PeekOpcode(buf, &op));
  EXPECT_EQ(op, Opcode::kSet);
  SetRequest req;
  ASSERT_TRUE(DecodeSetRequest(buf, &req));
  EXPECT_EQ(req.key, "mykey");
  EXPECT_EQ(req.val, "myvalue");
}

TEST(Protocol, MultiGetRequestRoundTrip) {
  Buffer buf;
  std::vector<std::string_view> keys = {"a", "bb", "ccc", ""};
  EncodeMultiGetRequest(keys, &buf);
  MultiGetRequest req;
  ASSERT_TRUE(DecodeMultiGetRequest(buf, &req));
  ASSERT_EQ(req.keys.size(), 4u);
  EXPECT_EQ(req.keys[0], "a");
  EXPECT_EQ(req.keys[1], "bb");
  EXPECT_EQ(req.keys[2], "ccc");
  EXPECT_EQ(req.keys[3], "");
}

TEST(Protocol, MultiGetResponseRoundTrip) {
  Buffer buf;
  std::vector<std::string_view> vals = {"v1", "", "value3"};
  std::vector<std::uint8_t> found = {1, 0, 1};
  EncodeMultiGetResponse(vals, found, &buf);
  MultiGetResponse resp;
  ASSERT_TRUE(DecodeMultiGetResponse(buf, &resp));
  ASSERT_EQ(resp.found.size(), 3u);
  EXPECT_EQ(resp.found[0], 1);
  EXPECT_EQ(resp.vals[0], "v1");
  EXPECT_EQ(resp.found[1], 0);
  EXPECT_EQ(resp.vals[1], "");
  EXPECT_EQ(resp.vals[2], "value3");
}

TEST(Protocol, SetResponseRoundTrip) {
  Buffer buf;
  EncodeSetResponse(true, &buf);
  bool ok = false;
  ASSERT_TRUE(DecodeSetResponse(buf, &ok));
  EXPECT_TRUE(ok);
  EncodeSetResponse(false, &buf);
  ASSERT_TRUE(DecodeSetResponse(buf, &ok));
  EXPECT_FALSE(ok);
}

TEST(Protocol, ShutdownOpcode) {
  Buffer buf;
  EncodeShutdownRequest(&buf);
  Opcode op;
  ASSERT_TRUE(PeekOpcode(buf, &op));
  EXPECT_EQ(op, Opcode::kShutdown);
}

TEST(Protocol, RejectsTruncatedInput) {
  Buffer buf;
  EncodeMultiGetRequest({"abcdef", "ghijkl"}, &buf);
  for (std::size_t cut = 1; cut < buf.size(); ++cut) {
    Buffer truncated(buf.begin(), buf.begin() + static_cast<long>(cut));
    MultiGetRequest req;
    EXPECT_FALSE(DecodeMultiGetRequest(truncated, &req)) << "cut=" << cut;
  }
}

TEST(Protocol, RejectsWrongOpcode) {
  Buffer buf;
  EncodeSetRequest("k", "v", &buf);
  MultiGetRequest req;
  EXPECT_FALSE(DecodeMultiGetRequest(buf, &req));
  bool ok;
  EXPECT_FALSE(DecodeSetResponse(buf, &ok));
  EXPECT_FALSE(PeekOpcode(Buffer{}, nullptr) &&
               false);  // empty buffer has no opcode
  Opcode op;
  EXPECT_FALSE(PeekOpcode(Buffer{}, &op));
}

TEST(Protocol, RejectsTrailingGarbage) {
  Buffer buf;
  EncodeSetRequest("k", "v", &buf);
  buf.push_back(0xEE);
  SetRequest req;
  EXPECT_FALSE(DecodeSetRequest(buf, &req));
}

TEST(Protocol, LargeBatchRoundTrip) {
  // 96 keys of 20 bytes — the paper's largest Multi-Get shape.
  std::vector<std::string> storage;
  std::vector<std::string_view> keys;
  for (int i = 0; i < 96; ++i) {
    storage.push_back(std::string(20, static_cast<char>('a' + i % 26)));
    keys.push_back(storage.back());
  }
  Buffer buf;
  EncodeMultiGetRequest(keys, &buf);
  MultiGetRequest req;
  ASSERT_TRUE(DecodeMultiGetRequest(buf, &req));
  ASSERT_EQ(req.keys.size(), 96u);
  for (int i = 0; i < 96; ++i) EXPECT_EQ(req.keys[i], keys[i]);
}

TEST(Protocol, TracedMultiGetRequestRoundTrip) {
  Buffer buf;
  TraceContext trace;
  trace.trace_id = 0x1122334455667788ull;
  trace.sampled = true;
  EncodeTracedMultiGetRequest({"a", "bb"}, trace, &buf);
  Opcode op;
  ASSERT_TRUE(PeekOpcode(buf, &op));
  EXPECT_EQ(op, Opcode::kTracedMultiGet);

  MultiGetRequest req;
  TraceContext back;
  ASSERT_TRUE(DecodeTracedMultiGetRequest(buf, &req, &back));
  ASSERT_EQ(req.keys.size(), 2u);
  EXPECT_EQ(req.keys[0], "a");
  EXPECT_EQ(req.keys[1], "bb");
  EXPECT_EQ(back.trace_id, trace.trace_id);
  EXPECT_TRUE(back.sampled);

  trace.sampled = false;
  EncodeTracedMultiGetRequest({"a"}, trace, &buf);
  ASSERT_TRUE(DecodeTracedMultiGetRequest(buf, &req, &back));
  EXPECT_FALSE(back.sampled);
}

TEST(Protocol, TracedMultiGetRequestRejectsUnknownFlagBits) {
  Buffer buf;
  TraceContext trace;
  trace.trace_id = 9;
  trace.sampled = true;
  EncodeTracedMultiGetRequest({"key"}, trace, &buf);
  // Flags byte sits after opcode(1) + count(4) + trace_id(8). Reserved
  // bits are a future protocol revision — reject, don't guess.
  buf[1 + 4 + 8] |= 0x02;
  MultiGetRequest req;
  TraceContext back;
  std::string err;
  EXPECT_FALSE(DecodeTracedMultiGetRequest(buf, &req, &back, &err));
  EXPECT_FALSE(err.empty());
}

TEST(Protocol, TracedMultiGetResponseRoundTrip) {
  Buffer buf;
  ServerTiming timing;
  timing.rx_us = 1234.5;
  timing.tx_us = 1300.25;
  EncodeTracedMultiGetResponse({"v1", ""}, {1, 0}, 0xdeadbeefull, timing,
                               &buf);
  MultiGetResponse resp;
  std::uint64_t trace_id = 0;
  ServerTiming back;
  ASSERT_TRUE(DecodeTracedMultiGetResponse(buf, &resp, &trace_id, &back));
  ASSERT_EQ(resp.vals.size(), 2u);
  EXPECT_EQ(resp.vals[0], "v1");
  EXPECT_EQ(resp.found[1], 0);
  EXPECT_EQ(trace_id, 0xdeadbeefull);
  EXPECT_DOUBLE_EQ(back.rx_us, 1234.5);
  EXPECT_DOUBLE_EQ(back.tx_us, 1300.25);
}

TEST(Protocol, TracedMultiGetRejectsTruncation) {
  Buffer buf;
  TraceContext trace;
  trace.trace_id = 1;
  EncodeTracedMultiGetRequest({"abc"}, trace, &buf);
  for (std::size_t cut = 1; cut < buf.size(); ++cut) {
    Buffer trunc(buf.begin(), buf.begin() + cut);
    MultiGetRequest req;
    TraceContext back;
    EXPECT_FALSE(DecodeTracedMultiGetRequest(trunc, &req, &back))
        << "cut=" << cut;
  }
  ServerTiming timing;
  EncodeTracedMultiGetResponse({"v"}, {1}, 2, timing, &buf);
  for (std::size_t cut = 1; cut < buf.size(); ++cut) {
    Buffer trunc(buf.begin(), buf.begin() + cut);
    MultiGetResponse resp;
    std::uint64_t id;
    ServerTiming back;
    EXPECT_FALSE(DecodeTracedMultiGetResponse(trunc, &resp, &id, &back))
        << "cut=" << cut;
  }
}

TEST(Protocol, MultiSetRequestRoundTrip) {
  Buffer buf;
  std::vector<std::string_view> keys = {"a", "bb", ""};
  std::vector<std::string_view> vals = {"v1", "", "value3"};
  EncodeMultiSetRequest(keys, vals, &buf);
  Opcode op;
  ASSERT_TRUE(PeekOpcode(buf, &op));
  EXPECT_EQ(op, Opcode::kMultiSet);
  MultiSetRequest req;
  ASSERT_TRUE(DecodeMultiSetRequest(buf, &req));
  ASSERT_EQ(req.keys.size(), 3u);
  ASSERT_EQ(req.vals.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(req.keys[i], keys[i]);
    EXPECT_EQ(req.vals[i], vals[i]);
  }
}

TEST(Protocol, MultiSetResponseRoundTrip) {
  Buffer buf;
  std::vector<std::uint8_t> ok = {1, 0, 1, 1};
  EncodeMultiSetResponse(ok, &buf);
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(DecodeMultiSetResponse(buf, &back));
  EXPECT_EQ(back, ok);
}

TEST(Protocol, MultiSetRejectsTruncation) {
  Buffer buf;
  EncodeMultiSetRequest({"abcdef", "gh"}, {"value-one", "value-two"}, &buf);
  for (std::size_t cut = 1; cut < buf.size(); ++cut) {
    Buffer trunc(buf.begin(), buf.begin() + static_cast<long>(cut));
    MultiSetRequest req;
    EXPECT_FALSE(DecodeMultiSetRequest(trunc, &req)) << "cut=" << cut;
  }
  EncodeMultiSetResponse({1, 1, 0}, &buf);
  for (std::size_t cut = 1; cut < buf.size(); ++cut) {
    Buffer trunc(buf.begin(), buf.begin() + static_cast<long>(cut));
    std::vector<std::uint8_t> ok;
    EXPECT_FALSE(DecodeMultiSetResponse(trunc, &ok)) << "cut=" << cut;
  }
}

TEST(Protocol, MultiSetRejectsTrailingGarbage) {
  Buffer buf;
  EncodeMultiSetRequest({"k"}, {"v"}, &buf);
  buf.push_back(0x5A);
  MultiSetRequest req;
  EXPECT_FALSE(DecodeMultiSetRequest(buf, &req));
}

TEST(Protocol, MultiSetRejectsWrongOpcode) {
  Buffer buf;
  EncodeMultiGetRequest({"k"}, &buf);
  MultiSetRequest req;
  EXPECT_FALSE(DecodeMultiSetRequest(buf, &req));
}

TEST(Protocol, MetricsRoundTrip) {
  Buffer buf;
  EncodeMetricsRequest(&buf);
  Opcode op;
  ASSERT_TRUE(PeekOpcode(buf, &op));
  EXPECT_EQ(op, Opcode::kMetrics);

  const std::string body =
      "# TYPE simdht_kvs_requests_total counter\n"
      "simdht_kvs_requests_total 7\n";
  EncodeMetricsResponse(body, &buf);
  std::string text;
  ASSERT_TRUE(DecodeMetricsResponse(buf, &text));
  EXPECT_EQ(text, body);

  // Truncated body must not decode.
  buf.pop_back();
  EXPECT_FALSE(DecodeMetricsResponse(buf, &text));
}

// --- golden bytes -----------------------------------------------------------
//
// The Multi-Get encoders size each frame once and copy entries in place;
// these pin the exact wire bytes (little-endian fields, as documented in
// protocol.h) so that a rewrite of either encoder cannot change the format.

// Concatenates byte values and string pieces into one expected frame.
struct Golden {
  Buffer bytes;
  Golden& U8(std::uint8_t v) {
    bytes.push_back(v);
    return *this;
  }
  Golden& Le(std::uint64_t v, unsigned width) {
    for (unsigned i = 0; i < width; ++i) U8((v >> (8 * i)) & 0xff);
    return *this;
  }
  Golden& Str(std::string_view s) {
    bytes.insert(bytes.end(), s.begin(), s.end());
    return *this;
  }
};

TEST(ProtocolGolden, MultiGetRequestBytes) {
  Buffer buf;
  EncodeMultiGetRequest({"ab", "", "xyz"}, &buf);
  Golden want;
  want.U8(2).Le(3, 4).Le(2, 2).Str("ab").Le(0, 2).Le(3, 2).Str("xyz");
  EXPECT_EQ(buf, want.bytes);

  EncodeMultiGetRequest({}, &buf);  // 0 keys: header only
  EXPECT_EQ(buf, Golden().U8(2).Le(0, 4).bytes);
}

TEST(ProtocolGolden, TracedMultiGetRequestBytes) {
  Buffer buf;
  EncodeTracedMultiGetRequest({"", "k"}, TraceContext{0x0102030405060708, true},
                              &buf);
  Golden want;
  want.U8(5).Le(2, 4).Le(0x0102030405060708, 8).U8(1);
  want.Le(0, 2).Le(1, 2).Str("k");
  EXPECT_EQ(buf, want.bytes);

  EncodeTracedMultiGetRequest({}, TraceContext{7, false}, &buf);
  EXPECT_EQ(buf, Golden().U8(5).Le(0, 4).Le(7, 8).U8(0).bytes);
}

TEST(ProtocolGolden, MultiGetResponseBytes) {
  Buffer buf;
  // found = 0 carries no value bytes even when the slot holds a stale view.
  EncodeMultiGetResponse({"v1", "", "stale"}, {1, 1, 0}, &buf);
  Golden want;
  want.U8(2).Le(3, 4);
  want.U8(1).Le(2, 4).Str("v1");  // hit
  want.U8(1).Le(0, 4);            // hit with an empty value
  want.U8(0).Le(0, 4);            // miss
  EXPECT_EQ(buf, want.bytes);

  const std::vector<std::string_view> no_vals;
  const std::vector<std::uint8_t> no_found;
  EncodeMultiGetResponse(no_vals, no_found, &buf);  // 0 entries
  EXPECT_EQ(buf, Golden().U8(2).Le(0, 4).bytes);
}

TEST(ProtocolGolden, TracedMultiGetResponseBytes) {
  Buffer buf;
  EncodeTracedMultiGetResponse({"", "val"}, {0, 1}, 0xabcdef, {1.5, 2.0},
                               &buf);
  Golden want;
  want.U8(5).Le(2, 4).Le(0xabcdef, 8);
  want.Le(0x3FF8000000000000ull, 8).Le(0x4000000000000000ull, 8);
  want.U8(0).Le(0, 4).U8(1).Le(3, 4).Str("val");
  EXPECT_EQ(buf, want.bytes);

  const std::vector<std::string_view> no_vals;
  const std::vector<std::uint8_t> no_found;
  EncodeTracedMultiGetResponse(no_vals, no_found, 1, {0.0, 0.0}, &buf);
  EXPECT_EQ(buf, Golden().U8(5).Le(0, 4).Le(1, 8).Le(0, 8).Le(0, 8).bytes);
}

TEST(ProtocolGolden, ResponseFromBatchSliceMatchesWholeVector) {
  // A server encodes one request's slice of a combined batch.
  const std::vector<std::string_view> vals = {"x", "mid", "", "y", "z"};
  const std::vector<std::uint8_t> found = {1, 1, 0, 1, 0};
  Buffer sliced, whole;
  EncodeMultiGetResponse(std::span<const std::string_view>(vals).subspan(1, 3),
                         std::span<const std::uint8_t>(found).subspan(1, 3),
                         &sliced);
  EncodeMultiGetResponse({"mid", "", "y"}, {1, 0, 1}, &whole);
  EXPECT_EQ(sliced, whole);
}

}  // namespace
}  // namespace simdht
