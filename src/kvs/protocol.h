// Binary wire protocol for the Multi-Get key-value store.
//
// Memcached-binary-flavoured framing, sized for the paper's workload
// (20 B keys, 32 B values, 16-96 keys per Multi-Get):
//
//   Request  = [u8 opcode][u32 count] then per entry:
//     SET:    [u16 klen][u32 vlen][key][value]    (count == 1)
//     MSET:   [u16 klen][u32 vlen][key][value]    (count == batch size)
//     MGET:   [u16 klen][key]                     (count == batch size)
//     STATS:  (no entries; count == 0)
//     TMGET:  [u64 trace_id][u8 flags] then MGET entries (trace context
//             prefix; flags bit0 = sampled)
//     METRICS: (no entries; count == 0)
//   Response = [u8 opcode][u32 count] then per entry:
//     SET:    [u8 ok]
//     MSET:   [u8 ok]
//     MGET:   [u8 found][u32 vlen][value]
//     STATS:  [u16 namelen][name][f64 value]      (named gauge snapshot)
//     TMGET:  [u64 trace_id][f64 server_rx_us][f64 server_tx_us] then MGET
//             entries (server-clock receive/transmit stamps for the clock
//             alignment done by tools/simdht_tracemerge)
//     METRICS: [u32 len][text]                    (Prometheus exposition)
//
// Compatibility: TMGET/METRICS are strict supersets — a server that knows
// them still accepts every PR 7 frame, and clients negotiate by checking
// the `proto.trace_context` gauge in a STATS snapshot before sending the
// new opcodes (an old server reports no such gauge and the client falls
// back to plain MGET, so old binaries on either side keep working).
//
// Encoders append to a reusable buffer; decoders return string_views into
// the input (zero-copy, mirroring how an RDMA-registered buffer is parsed).
//
// The same frames travel over two transports: the simulated RDMA channel
// (kvs/transport.h, message-oriented — one Buffer is one frame) and real
// TCP (src/net/, stream-oriented). TCP prefixes every frame with a u32
// payload length; FrameAssembler below reassembles frames from arbitrary
// stream fragments. Decoders treat all input as untrusted: every length
// field is validated against the bytes actually present before any
// allocation or read, and failures carry a descriptive error for logs.
#ifndef SIMDHT_KVS_PROTOCOL_H_
#define SIMDHT_KVS_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace simdht {

enum class Opcode : std::uint8_t {
  kSet = 1,
  kMultiGet = 2,
  kShutdown = 3,        // closes the server worker serving this channel
  kStats = 4,           // snapshot of the server's serving metrics
  kTracedMultiGet = 5,  // MGET carrying a trace context (id + sampled flag)
  kMetrics = 6,         // Prometheus-text exposition of the live metrics
  kMultiSet = 7,        // batched SET: the write twin of kMultiGet
};

// Per-request trace context carried by kTracedMultiGet. The id correlates
// client and server spans of one request across trace files; `sampled`
// tells the server whether to record spans for it (the id travels either
// way so responses can be matched).
struct TraceContext {
  std::uint64_t trace_id = 0;
  bool sampled = false;
};

// Server-side receive/transmit timestamps echoed on a traced response, in
// the server's Timeline::NowUs() clock. The trace merge tool estimates the
// client/server clock offset from (rx, tx) vs the client's (send, recv).
struct ServerTiming {
  double rx_us = 0.0;
  double tx_us = 0.0;
};

using Buffer = std::vector<std::uint8_t>;

// Hard limits on untrusted length fields. Frames violating them are
// rejected before any allocation sized by attacker-controlled values.
inline constexpr std::size_t kMaxFrameBytes = 16u << 20;   // 16 MiB
inline constexpr std::size_t kMaxKeyBytes = 4096;          // per key
inline constexpr std::size_t kMaxValueBytes = 8u << 20;    // per value
inline constexpr std::size_t kMaxMultiGetKeys = 1u << 20;  // per batch

// --- encoding (client side requests, server side responses) ---

void EncodeSetRequest(std::string_view key, std::string_view val,
                      Buffer* out);
void EncodeMultiSetRequest(const std::vector<std::string_view>& keys,
                           const std::vector<std::string_view>& vals,
                           Buffer* out);
void EncodeMultiGetRequest(const std::vector<std::string_view>& keys,
                           Buffer* out);
void EncodeTracedMultiGetRequest(const std::vector<std::string_view>& keys,
                                 const TraceContext& trace, Buffer* out);
void EncodeShutdownRequest(Buffer* out);
void EncodeStatsRequest(Buffer* out);
void EncodeMetricsRequest(Buffer* out);

void EncodeSetResponse(bool ok, Buffer* out);
void EncodeMultiSetResponse(const std::vector<std::uint8_t>& ok,
                            Buffer* out);
// `vals`/`found` are parallel spans, so a server can encode one request's
// slice of a combined batch without copying it out.
void EncodeMultiGetResponse(std::span<const std::string_view> vals,
                            std::span<const std::uint8_t> found,
                            Buffer* out);
void EncodeTracedMultiGetResponse(std::span<const std::string_view> vals,
                                  std::span<const std::uint8_t> found,
                                  std::uint64_t trace_id,
                                  const ServerTiming& timing, Buffer* out);
// Whole-vector forms (also accept braced lists).
inline void EncodeMultiGetResponse(const std::vector<std::string_view>& vals,
                                   const std::vector<std::uint8_t>& found,
                                   Buffer* out) {
  EncodeMultiGetResponse(std::span<const std::string_view>(vals),
                         std::span<const std::uint8_t>(found), out);
}
inline void EncodeTracedMultiGetResponse(
    const std::vector<std::string_view>& vals,
    const std::vector<std::uint8_t>& found, std::uint64_t trace_id,
    const ServerTiming& timing, Buffer* out) {
  EncodeTracedMultiGetResponse(std::span<const std::string_view>(vals),
                               std::span<const std::uint8_t>(found), trace_id,
                               timing, out);
}

// Named doubles (e.g. "parse_ns.p999" -> 1234.0); order is preserved.
using StatsPairs = std::vector<std::pair<std::string, double>>;
void EncodeStatsResponse(const StatsPairs& stats, Buffer* out);

// `text` is the Prometheus exposition body (already rendered).
void EncodeMetricsResponse(std::string_view text, Buffer* out);

// --- decoding ---

struct SetRequest {
  std::string_view key;
  std::string_view val;
};

struct MultiGetRequest {
  std::vector<std::string_view> keys;
};

struct MultiSetRequest {
  std::vector<std::string_view> keys;
  std::vector<std::string_view> vals;  // parallel to keys
};

struct MultiGetResponse {
  // found[i] != 0 => vals[i] is the value; otherwise vals[i] is empty.
  std::vector<std::uint8_t> found;
  std::vector<std::string_view> vals;
};

// Peeks the opcode (first byte); false on empty input.
bool PeekOpcode(const Buffer& in, Opcode* op);

// All decoders return false on malformed/truncated/oversized input and
// never read past the buffer. When `err` is non-null a failure explains
// itself ("mget count 70000 needs >= 140000 bytes, 12 remain", ...).
bool DecodeSetRequest(const Buffer& in, SetRequest* out,
                      std::string* err = nullptr);
bool DecodeMultiSetRequest(const Buffer& in, MultiSetRequest* out,
                           std::string* err = nullptr);
bool DecodeMultiGetRequest(const Buffer& in, MultiGetRequest* out,
                           std::string* err = nullptr);
bool DecodeTracedMultiGetRequest(const Buffer& in, MultiGetRequest* out,
                                 TraceContext* trace,
                                 std::string* err = nullptr);
bool DecodeSetResponse(const Buffer& in, bool* ok,
                       std::string* err = nullptr);
bool DecodeMultiSetResponse(const Buffer& in, std::vector<std::uint8_t>* ok,
                            std::string* err = nullptr);
bool DecodeMultiGetResponse(const Buffer& in, MultiGetResponse* out,
                            std::string* err = nullptr);
bool DecodeTracedMultiGetResponse(const Buffer& in, MultiGetResponse* out,
                                  std::uint64_t* trace_id,
                                  ServerTiming* timing,
                                  std::string* err = nullptr);
bool DecodeStatsResponse(const Buffer& in, StatsPairs* out,
                         std::string* err = nullptr);
bool DecodeMetricsResponse(const Buffer& in, std::string* text,
                           std::string* err = nullptr);

// --- stream framing (TCP transport) ---

// Appends [u32 payload_len][payload] to `out` (does NOT clear: a server
// write buffer accumulates many frames between flushes).
void AppendFrame(const Buffer& payload, Buffer* out);

// Reassembles length-prefixed frames from arbitrary stream fragments.
// Usage per read: Append(data, n); then Next() until it stops returning
// kFrame. A kError result (length field over max_frame_bytes) poisons the
// stream — the connection must be closed, resynchronization is impossible.
class FrameAssembler {
 public:
  explicit FrameAssembler(std::size_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  enum class Result { kFrame, kNeedMore, kError };

  void Append(const std::uint8_t* data, std::size_t n);

  // kFrame: *frame holds one complete payload (length prefix stripped).
  // kNeedMore: no complete frame buffered yet.
  // kError: poisoned; `err` (optional) describes the bad length field.
  Result Next(Buffer* frame, std::string* err = nullptr);

  std::size_t buffered_bytes() const { return buffer_.size() - pos_; }

 private:
  std::size_t max_frame_bytes_;
  Buffer buffer_;
  std::size_t pos_ = 0;  // consumed prefix of buffer_
  bool poisoned_ = false;
};

}  // namespace simdht

#endif  // SIMDHT_KVS_PROTOCOL_H_
