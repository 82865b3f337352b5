#include "kvs/protocol.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace simdht {
namespace {

void PutU8(Buffer* out, std::uint8_t v) { out->push_back(v); }

void PutU16(Buffer* out, std::uint16_t v) {
  const std::size_t at = out->size();
  out->resize(at + 2);
  std::memcpy(out->data() + at, &v, 2);
}

void PutU32(Buffer* out, std::uint32_t v) {
  const std::size_t at = out->size();
  out->resize(at + 4);
  std::memcpy(out->data() + at, &v, 4);
}

void PutU64(Buffer* out, std::uint64_t v) {
  const std::size_t at = out->size();
  out->resize(at + 8);
  std::memcpy(out->data() + at, &v, 8);
}

void PutBytes(Buffer* out, std::string_view bytes) {
  out->insert(out->end(), bytes.begin(), bytes.end());
}

void Fail(std::string* err, const char* fmt, ...) {
  if (err == nullptr) return;
  char buf[160];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *err = buf;
}

// Cursor-style reader with bounds checking.
class Reader {
 public:
  explicit Reader(const Buffer& in) : data_(in.data()), size_(in.size()) {}

  bool U8(std::uint8_t* v) { return Copy(v, 1); }
  bool U16(std::uint16_t* v) { return Copy(v, 2); }
  bool U32(std::uint32_t* v) { return Copy(v, 4); }
  bool U64(std::uint64_t* v) { return Copy(v, 8); }

  bool Bytes(std::size_t n, std::string_view* v) {
    if (n > size_ - pos_) return false;
    *v = {reinterpret_cast<const char*>(data_) + pos_, n};
    pos_ += n;
    return true;
  }

  bool AtEnd() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  bool Copy(void* v, std::size_t n) {
    if (n > size_ - pos_) return false;
    std::memcpy(v, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// Shared prologue: opcode byte must match, count field must be present.
bool ReadHeader(Reader* r, Opcode want, std::uint32_t* count,
                std::string* err) {
  std::uint8_t op;
  if (!r->U8(&op)) {
    Fail(err, "empty frame (no opcode byte)");
    return false;
  }
  if (op != static_cast<std::uint8_t>(want)) {
    Fail(err, "opcode %u where %u expected", op,
         static_cast<unsigned>(want));
    return false;
  }
  if (!r->U32(count)) {
    Fail(err, "frame truncated inside the count field");
    return false;
  }
  return true;
}

bool CheckTrailing(const Reader& r, std::string* err) {
  if (r.AtEnd()) return true;
  Fail(err, "%zu trailing bytes after the last entry", r.remaining());
  return false;
}

void PutF64(Buffer* out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

bool ReadF64(Reader* r, double* v) {
  std::uint64_t bits;
  if (!r->U64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

// Shared MGET entry loops (plain and traced frames differ only in their
// header prefix). The encoders size the frame once and copy each entry in
// place: Multi-Get frames are the hot path, at 96 entries per request.

// Grows `out` by `bytes` and returns where the new bytes start.
std::uint8_t* Extend(Buffer* out, std::size_t bytes) {
  const std::size_t at = out->size();
  out->resize(at + bytes);
  return out->data() + at;
}

template <typename T>
std::uint8_t* Store(std::uint8_t* at, T v) {
  std::memcpy(at, &v, sizeof(T));
  return at + sizeof(T);
}

std::uint8_t* StoreBytes(std::uint8_t* at, std::string_view bytes) {
  if (!bytes.empty()) std::memcpy(at, bytes.data(), bytes.size());
  return at + bytes.size();
}

void EncodeMgetKeys(const std::vector<std::string_view>& keys, Buffer* out) {
  std::size_t bytes = keys.size() * sizeof(std::uint16_t);
  for (std::string_view key : keys) bytes += key.size();
  std::uint8_t* at = Extend(out, bytes);
  for (std::string_view key : keys) {
    at = Store(at, static_cast<std::uint16_t>(key.size()));
    at = StoreBytes(at, key);
  }
}

bool DecodeMgetKeys(Reader* r, std::uint32_t count, MultiGetRequest* out,
                    std::string* err) {
  // Every entry needs at least its 2-byte length field, so a structurally
  // valid count is bounded by the bytes actually present. Checking before
  // reserve() keeps a hostile count from sizing an allocation.
  if (count > kMaxMultiGetKeys || count * std::size_t{2} > r->remaining()) {
    Fail(err, "mget count %u needs >= %zu bytes, %zu remain", count,
         count * std::size_t{2}, r->remaining());
    return false;
  }
  out->keys.clear();
  out->keys.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint16_t klen;
    std::string_view key;
    if (!r->U16(&klen)) {
      Fail(err, "mget key %u/%u truncated in the length field", i, count);
      return false;
    }
    if (klen > kMaxKeyBytes) {
      Fail(err, "mget key %u/%u length %u exceeds %zu", i, count, klen,
           kMaxKeyBytes);
      return false;
    }
    if (!r->Bytes(klen, &key)) {
      Fail(err, "mget key %u/%u claims %u bytes, %zu remain", i, count,
           klen, r->remaining());
      return false;
    }
    out->keys.push_back(key);
  }
  return true;
}

void EncodeMgetValues(std::span<const std::string_view> vals,
                      std::span<const std::uint8_t> found, Buffer* out) {
  std::size_t bytes = vals.size() * (1 + sizeof(std::uint32_t));
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (found[i]) bytes += vals[i].size();
  }
  std::uint8_t* at = Extend(out, bytes);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    const std::string_view val = found[i] ? vals[i] : std::string_view{};
    at = Store(at, static_cast<std::uint8_t>(found[i] ? 1 : 0));
    at = Store(at, static_cast<std::uint32_t>(val.size()));
    at = StoreBytes(at, val);
  }
}

bool DecodeMgetValues(Reader* r, std::uint32_t count, MultiGetResponse* out,
                      std::string* err) {
  // Each entry carries at least [u8 found][u32 vlen] = 5 bytes.
  if (count > kMaxMultiGetKeys || count * std::size_t{5} > r->remaining()) {
    Fail(err, "mget response count %u needs >= %zu bytes, %zu remain",
         count, count * std::size_t{5}, r->remaining());
    return false;
  }
  out->found.clear();
  out->vals.clear();
  out->found.reserve(count);
  out->vals.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint8_t found;
    std::uint32_t vlen;
    std::string_view val;
    if (!r->U8(&found) || !r->U32(&vlen)) {
      Fail(err, "mget response entry %u/%u truncated in the header", i,
           count);
      return false;
    }
    if (vlen > kMaxValueBytes) {
      Fail(err, "mget response value %u/%u length %u exceeds the %zu-byte "
                "cap",
           i, count, vlen, kMaxValueBytes);
      return false;
    }
    if (!r->Bytes(vlen, &val)) {
      Fail(err, "mget response value %u/%u claims %u bytes, %zu remain", i,
           count, vlen, r->remaining());
      return false;
    }
    out->found.push_back(found);
    out->vals.push_back(val);
  }
  return true;
}

// kTracedMultiGet flag bits.
constexpr std::uint8_t kTraceFlagSampled = 0x01;

}  // namespace

void EncodeSetRequest(std::string_view key, std::string_view val,
                      Buffer* out) {
  out->clear();
  PutU8(out, static_cast<std::uint8_t>(Opcode::kSet));
  PutU32(out, 1);
  PutU16(out, static_cast<std::uint16_t>(key.size()));
  PutU32(out, static_cast<std::uint32_t>(val.size()));
  PutBytes(out, key);
  PutBytes(out, val);
}

void EncodeMultiSetRequest(const std::vector<std::string_view>& keys,
                           const std::vector<std::string_view>& vals,
                           Buffer* out) {
  out->clear();
  PutU8(out, static_cast<std::uint8_t>(Opcode::kMultiSet));
  PutU32(out, static_cast<std::uint32_t>(keys.size()));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    PutU16(out, static_cast<std::uint16_t>(keys[i].size()));
    PutU32(out, static_cast<std::uint32_t>(vals[i].size()));
    PutBytes(out, keys[i]);
    PutBytes(out, vals[i]);
  }
}

void EncodeMultiGetRequest(const std::vector<std::string_view>& keys,
                           Buffer* out) {
  out->clear();
  PutU8(out, static_cast<std::uint8_t>(Opcode::kMultiGet));
  PutU32(out, static_cast<std::uint32_t>(keys.size()));
  EncodeMgetKeys(keys, out);
}

void EncodeTracedMultiGetRequest(const std::vector<std::string_view>& keys,
                                 const TraceContext& trace, Buffer* out) {
  out->clear();
  PutU8(out, static_cast<std::uint8_t>(Opcode::kTracedMultiGet));
  PutU32(out, static_cast<std::uint32_t>(keys.size()));
  PutU64(out, trace.trace_id);
  PutU8(out, trace.sampled ? kTraceFlagSampled : 0);
  EncodeMgetKeys(keys, out);
}

void EncodeShutdownRequest(Buffer* out) {
  out->clear();
  PutU8(out, static_cast<std::uint8_t>(Opcode::kShutdown));
  PutU32(out, 0);
}

void EncodeStatsRequest(Buffer* out) {
  out->clear();
  PutU8(out, static_cast<std::uint8_t>(Opcode::kStats));
  PutU32(out, 0);
}

void EncodeMetricsRequest(Buffer* out) {
  out->clear();
  PutU8(out, static_cast<std::uint8_t>(Opcode::kMetrics));
  PutU32(out, 0);
}

void EncodeSetResponse(bool ok, Buffer* out) {
  out->clear();
  PutU8(out, static_cast<std::uint8_t>(Opcode::kSet));
  PutU32(out, 1);
  PutU8(out, ok ? 1 : 0);
}

void EncodeMultiSetResponse(const std::vector<std::uint8_t>& ok,
                            Buffer* out) {
  out->clear();
  PutU8(out, static_cast<std::uint8_t>(Opcode::kMultiSet));
  PutU32(out, static_cast<std::uint32_t>(ok.size()));
  for (std::uint8_t v : ok) PutU8(out, v ? 1 : 0);
}

void EncodeMultiGetResponse(std::span<const std::string_view> vals,
                            std::span<const std::uint8_t> found,
                            Buffer* out) {
  out->clear();
  PutU8(out, static_cast<std::uint8_t>(Opcode::kMultiGet));
  PutU32(out, static_cast<std::uint32_t>(vals.size()));
  EncodeMgetValues(vals, found, out);
}

void EncodeTracedMultiGetResponse(std::span<const std::string_view> vals,
                                  std::span<const std::uint8_t> found,
                                  std::uint64_t trace_id,
                                  const ServerTiming& timing, Buffer* out) {
  out->clear();
  PutU8(out, static_cast<std::uint8_t>(Opcode::kTracedMultiGet));
  PutU32(out, static_cast<std::uint32_t>(vals.size()));
  PutU64(out, trace_id);
  PutF64(out, timing.rx_us);
  PutF64(out, timing.tx_us);
  EncodeMgetValues(vals, found, out);
}

void EncodeStatsResponse(const StatsPairs& stats, Buffer* out) {
  out->clear();
  PutU8(out, static_cast<std::uint8_t>(Opcode::kStats));
  PutU32(out, static_cast<std::uint32_t>(stats.size()));
  for (const auto& [name, value] : stats) {
    PutU16(out, static_cast<std::uint16_t>(name.size()));
    PutBytes(out, name);
    PutF64(out, value);
  }
}

void EncodeMetricsResponse(std::string_view text, Buffer* out) {
  out->clear();
  PutU8(out, static_cast<std::uint8_t>(Opcode::kMetrics));
  PutU32(out, 1);
  PutU32(out, static_cast<std::uint32_t>(text.size()));
  PutBytes(out, text);
}

bool PeekOpcode(const Buffer& in, Opcode* op) {
  if (in.empty()) return false;
  *op = static_cast<Opcode>(in[0]);
  return true;
}

bool DecodeSetRequest(const Buffer& in, SetRequest* out, std::string* err) {
  Reader r(in);
  std::uint32_t count;
  std::uint16_t klen;
  std::uint32_t vlen;
  if (!ReadHeader(&r, Opcode::kSet, &count, err)) return false;
  if (count != 1) {
    Fail(err, "set count %u (must be 1)", count);
    return false;
  }
  if (!r.U16(&klen) || !r.U32(&vlen)) {
    Fail(err, "set frame truncated inside the length fields");
    return false;
  }
  if (klen > kMaxKeyBytes) {
    Fail(err, "set key length %u exceeds %zu", klen, kMaxKeyBytes);
    return false;
  }
  if (vlen > kMaxValueBytes) {
    Fail(err, "set value length %u exceeds the %zu-byte cap", vlen,
         kMaxValueBytes);
    return false;
  }
  if (!r.Bytes(klen, &out->key) || !r.Bytes(vlen, &out->val)) {
    Fail(err, "set payload truncated: %u+%u bytes claimed, %zu remain",
         klen, vlen, r.remaining());
    return false;
  }
  return CheckTrailing(r, err);
}

bool DecodeMultiSetRequest(const Buffer& in, MultiSetRequest* out,
                           std::string* err) {
  Reader r(in);
  std::uint32_t count;
  if (!ReadHeader(&r, Opcode::kMultiSet, &count, err)) return false;
  // Every entry needs at least its length fields ([u16 klen][u32 vlen]).
  if (count > kMaxMultiGetKeys || count * std::size_t{6} > r.remaining()) {
    Fail(err, "mset count %u needs >= %zu bytes, %zu remain", count,
         count * std::size_t{6}, r.remaining());
    return false;
  }
  out->keys.clear();
  out->vals.clear();
  out->keys.reserve(count);
  out->vals.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint16_t klen;
    std::uint32_t vlen;
    std::string_view key;
    std::string_view val;
    if (!r.U16(&klen) || !r.U32(&vlen)) {
      Fail(err, "mset entry %u/%u truncated in the length fields", i,
           count);
      return false;
    }
    if (klen > kMaxKeyBytes) {
      Fail(err, "mset key %u/%u length %u exceeds %zu", i, count, klen,
           kMaxKeyBytes);
      return false;
    }
    if (vlen > kMaxValueBytes) {
      Fail(err, "mset value %u/%u length %u exceeds the %zu-byte cap", i,
           count, vlen, kMaxValueBytes);
      return false;
    }
    if (!r.Bytes(klen, &key) || !r.Bytes(vlen, &val)) {
      Fail(err, "mset entry %u/%u claims %u+%u bytes, %zu remain", i,
           count, klen, vlen, r.remaining());
      return false;
    }
    out->keys.push_back(key);
    out->vals.push_back(val);
  }
  return CheckTrailing(r, err);
}

bool DecodeMultiGetRequest(const Buffer& in, MultiGetRequest* out,
                           std::string* err) {
  Reader r(in);
  std::uint32_t count;
  if (!ReadHeader(&r, Opcode::kMultiGet, &count, err)) return false;
  if (!DecodeMgetKeys(&r, count, out, err)) return false;
  return CheckTrailing(r, err);
}

bool DecodeTracedMultiGetRequest(const Buffer& in, MultiGetRequest* out,
                                 TraceContext* trace, std::string* err) {
  Reader r(in);
  std::uint32_t count;
  std::uint8_t flags;
  if (!ReadHeader(&r, Opcode::kTracedMultiGet, &count, err)) return false;
  if (!r.U64(&trace->trace_id) || !r.U8(&flags)) {
    Fail(err, "traced mget truncated inside the trace context");
    return false;
  }
  trace->sampled = (flags & kTraceFlagSampled) != 0;
  if ((flags & ~kTraceFlagSampled) != 0) {
    Fail(err, "traced mget carries unknown flag bits 0x%02x", flags);
    return false;
  }
  if (!DecodeMgetKeys(&r, count, out, err)) return false;
  return CheckTrailing(r, err);
}

bool DecodeSetResponse(const Buffer& in, bool* ok, std::string* err) {
  Reader r(in);
  std::uint32_t count;
  std::uint8_t v;
  if (!ReadHeader(&r, Opcode::kSet, &count, err)) return false;
  if (!r.U8(&v)) {
    Fail(err, "set response truncated before the status byte");
    return false;
  }
  *ok = v != 0;
  return CheckTrailing(r, err);
}

bool DecodeMultiSetResponse(const Buffer& in, std::vector<std::uint8_t>* ok,
                            std::string* err) {
  Reader r(in);
  std::uint32_t count;
  if (!ReadHeader(&r, Opcode::kMultiSet, &count, err)) return false;
  if (count > kMaxMultiGetKeys || count > r.remaining()) {
    Fail(err, "mset response count %u needs %u bytes, %zu remain", count,
         count, r.remaining());
    return false;
  }
  ok->clear();
  ok->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint8_t v;
    if (!r.U8(&v)) {
      Fail(err, "mset response entry %u/%u truncated", i, count);
      return false;
    }
    ok->push_back(v);
  }
  return CheckTrailing(r, err);
}

bool DecodeMultiGetResponse(const Buffer& in, MultiGetResponse* out,
                            std::string* err) {
  Reader r(in);
  std::uint32_t count;
  if (!ReadHeader(&r, Opcode::kMultiGet, &count, err)) return false;
  if (!DecodeMgetValues(&r, count, out, err)) return false;
  return CheckTrailing(r, err);
}

bool DecodeTracedMultiGetResponse(const Buffer& in, MultiGetResponse* out,
                                  std::uint64_t* trace_id,
                                  ServerTiming* timing, std::string* err) {
  Reader r(in);
  std::uint32_t count;
  if (!ReadHeader(&r, Opcode::kTracedMultiGet, &count, err)) return false;
  if (!r.U64(trace_id) || !ReadF64(&r, &timing->rx_us) ||
      !ReadF64(&r, &timing->tx_us)) {
    Fail(err, "traced mget response truncated inside the timing prefix");
    return false;
  }
  if (!DecodeMgetValues(&r, count, out, err)) return false;
  return CheckTrailing(r, err);
}

bool DecodeStatsResponse(const Buffer& in, StatsPairs* out,
                         std::string* err) {
  Reader r(in);
  std::uint32_t count;
  if (!ReadHeader(&r, Opcode::kStats, &count, err)) return false;
  // Each entry carries at least [u16 namelen][f64] = 10 bytes.
  if (count * std::size_t{10} > r.remaining()) {
    Fail(err, "stats count %u needs >= %zu bytes, %zu remain", count,
         count * std::size_t{10}, r.remaining());
    return false;
  }
  out->clear();
  out->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint16_t namelen;
    std::string_view name;
    std::uint64_t bits;
    if (!r.U16(&namelen) || !r.Bytes(namelen, &name) || !r.U64(&bits)) {
      Fail(err, "stats entry %u/%u truncated", i, count);
      return false;
    }
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    out->emplace_back(std::string(name), value);
  }
  return CheckTrailing(r, err);
}

bool DecodeMetricsResponse(const Buffer& in, std::string* text,
                           std::string* err) {
  Reader r(in);
  std::uint32_t count;
  std::uint32_t len;
  std::string_view body;
  if (!ReadHeader(&r, Opcode::kMetrics, &count, err)) return false;
  if (count != 1) {
    Fail(err, "metrics response count %u (must be 1)", count);
    return false;
  }
  if (!r.U32(&len)) {
    Fail(err, "metrics response truncated before the text length");
    return false;
  }
  if (len > kMaxFrameBytes) {
    Fail(err, "metrics text length %u exceeds the %zu-byte cap", len,
         kMaxFrameBytes);
    return false;
  }
  if (!r.Bytes(len, &body)) {
    Fail(err, "metrics text claims %u bytes, %zu remain", len,
         r.remaining());
    return false;
  }
  text->assign(body);
  return CheckTrailing(r, err);
}

void AppendFrame(const Buffer& payload, Buffer* out) {
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  out->insert(out->end(), payload.begin(), payload.end());
}

void FrameAssembler::Append(const std::uint8_t* data, std::size_t n) {
  if (poisoned_) return;
  // Compact the consumed prefix before growing; keeps the buffer bounded
  // by one partial frame plus whatever the last read delivered.
  if (pos_ > 0 && pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  } else if (pos_ >= 4096 && pos_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
}

FrameAssembler::Result FrameAssembler::Next(Buffer* frame,
                                            std::string* err) {
  if (poisoned_) {
    Fail(err, "stream poisoned by an earlier invalid length prefix");
    return Result::kError;
  }
  const std::size_t avail = buffer_.size() - pos_;
  if (avail < 4) return Result::kNeedMore;
  std::uint32_t len;
  std::memcpy(&len, buffer_.data() + pos_, 4);
  if (len > max_frame_bytes_) {
    poisoned_ = true;
    Fail(err, "frame length %u exceeds the %zu-byte cap", len,
         max_frame_bytes_);
    return Result::kError;
  }
  if (avail - 4 < len) return Result::kNeedMore;
  frame->assign(buffer_.begin() + static_cast<std::ptrdiff_t>(pos_ + 4),
                buffer_.begin() + static_cast<std::ptrdiff_t>(pos_ + 4 + len));
  pos_ += 4 + std::size_t{len};
  return Result::kFrame;
}

}  // namespace simdht
