#include "net/wire.h"

#include <utility>

#include "common/codec.h"
#include "net/crc32.h"
#include "obs/trace_clock.h"

namespace massbft {

namespace {

/// Bytes covered by the CRC before the (optional) trace context and body:
/// version..body_len, i.e. [4, kFrameHeaderBytes - 4).
constexpr size_t kCrcHeaderSpan = kFrameHeaderBytes - 4 - 4;

}  // namespace

Bytes EncodeFrame(const ProtocolMessage& msg, NodeId src) {
  return EncodeFrame(
      msg, src, msg.info().carries_trace ? obs::TraceClock::NowNs() : 0);
}

Bytes EncodeFrame(const ProtocolMessage& msg, NodeId src,
                  uint64_t origin_ts_ns) {
  // Offsets of the two fields patched after the payload is appended.
  constexpr size_t kBodyLenOffset = kFrameHeaderBytes - 8;
  constexpr size_t kCrcOffset = kFrameHeaderBytes - 4;

  TraceContext ctx;
  const bool has_trace = msg.TraceKey(&ctx.gid, &ctx.seq);
  ctx.origin = src.Packed();
  ctx.origin_ts_ns = origin_ts_ns;

  BinaryWriter w(msg.ByteSize());
  w.PutU32(kWireMagic);
  w.PutU8(kWireVersion);
  w.PutU8(static_cast<uint8_t>(msg.message_type()));
  w.PutU8(has_trace ? kFrameFlagTraceContext : 0);
  w.PutU32(src.Packed());
  w.PutU32(0);  // body length, patched below
  w.PutU32(0);  // CRC, patched below
  if (has_trace) {
    w.PutU16(ctx.gid);
    w.PutU64(ctx.seq);
    w.PutU32(ctx.origin);
    w.PutU64(ctx.origin_ts_ns);
  }
  msg.EncodeBodyTo(&w);

  const size_t trace_len = has_trace ? kTraceContextBytes : 0;
  const size_t body_len = w.size() - kFrameHeaderBytes - trace_len;
  w.PatchU32(kBodyLenOffset, static_cast<uint32_t>(body_len));

  // The CRC spans version..body_len plus everything after the CRC field
  // itself; computing it over the assembled bytes needs no scratch buffers.
  Crc32 crc;
  crc.Update(w.buffer().data() + 4, kCrcHeaderSpan);
  crc.Update(w.buffer().data() + kFrameHeaderBytes, trace_len + body_len);
  w.PatchU32(kCrcOffset, crc.Finish());
  return w.Release();
}

Result<size_t> PeekFrameLength(const uint8_t* data, size_t len) {
  if (len < kFrameHeaderBytes)
    return Status::InvalidArgument("need a full header to size a frame");
  BinaryReader r(data, kFrameHeaderBytes);
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t type = 0;
  uint8_t flags = 0;
  uint32_t src = 0;
  uint32_t body_len = 0;
  MASSBFT_RETURN_IF_ERROR(r.GetU32(&magic));
  MASSBFT_RETURN_IF_ERROR(r.GetU8(&version));
  MASSBFT_RETURN_IF_ERROR(r.GetU8(&type));
  MASSBFT_RETURN_IF_ERROR(r.GetU8(&flags));
  MASSBFT_RETURN_IF_ERROR(r.GetU32(&src));
  MASSBFT_RETURN_IF_ERROR(r.GetU32(&body_len));
  if (magic != kWireMagic) return Status::Corruption("bad frame magic");
  if (version != kWireVersion)
    return Status::Corruption("unsupported wire version");
  if ((flags & ~kFrameFlagTraceContext) != 0)
    return Status::Corruption("unknown frame flags");
  if (body_len > kMaxBodyBytes)
    return Status::Corruption("frame body length over cap");
  const size_t trace_len =
      (flags & kFrameFlagTraceContext) != 0 ? kTraceContextBytes : 0;
  return kFrameHeaderBytes + trace_len + static_cast<size_t>(body_len);
}

Result<Frame> DecodeFrame(const uint8_t* data, size_t len) {
  MASSBFT_ASSIGN_OR_RETURN(size_t frame_len, PeekFrameLength(data, len));
  if (len < frame_len) return Status::Corruption("truncated frame");
  if (len > frame_len) return Status::Corruption("trailing bytes after frame");

  BinaryReader header(data, kFrameHeaderBytes);
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t type = 0;
  uint8_t flags = 0;
  uint32_t src_packed = 0;
  uint32_t body_len = 0;
  uint32_t claimed_crc = 0;
  MASSBFT_RETURN_IF_ERROR(header.GetU32(&magic));
  MASSBFT_RETURN_IF_ERROR(header.GetU8(&version));
  MASSBFT_RETURN_IF_ERROR(header.GetU8(&type));
  MASSBFT_RETURN_IF_ERROR(header.GetU8(&flags));
  MASSBFT_RETURN_IF_ERROR(header.GetU32(&src_packed));
  MASSBFT_RETURN_IF_ERROR(header.GetU32(&body_len));
  MASSBFT_RETURN_IF_ERROR(header.GetU32(&claimed_crc));

  const bool has_trace = (flags & kFrameFlagTraceContext) != 0;
  const size_t trace_len = has_trace ? kTraceContextBytes : 0;

  Crc32 crc;
  crc.Update(data + 4, kCrcHeaderSpan);
  crc.Update(data + kFrameHeaderBytes, trace_len + body_len);
  if (crc.Finish() != claimed_crc)
    return Status::Corruption("frame CRC mismatch");

  const MessageTypeInfo* info = FindMessageType(static_cast<MessageType>(type));
  if (info == nullptr) return Status::Corruption("unknown message type");
  // The trace flag is a function of the message type, not a choice: a
  // mismatch means a corrupted or hand-rolled frame whose size accounting
  // would diverge from the simulator's.
  if (has_trace != info->carries_trace)
    return Status::Corruption("trace context flag mismatches message type");

  Frame frame;
  frame.has_trace = has_trace;
  if (has_trace) {
    BinaryReader tr(data + kFrameHeaderBytes, kTraceContextBytes);
    MASSBFT_RETURN_IF_ERROR(tr.GetU16(&frame.trace.gid));
    MASSBFT_RETURN_IF_ERROR(tr.GetU64(&frame.trace.seq));
    MASSBFT_RETURN_IF_ERROR(tr.GetU32(&frame.trace.origin));
    MASSBFT_RETURN_IF_ERROR(tr.GetU64(&frame.trace.origin_ts_ns));
  }

  BinaryReader body(data + kFrameHeaderBytes + trace_len, body_len);
  MASSBFT_ASSIGN_OR_RETURN(std::unique_ptr<ProtocolMessage> msg,
                           info->decode(info->type, &body));
  // Like the flag, the context's entry key and origin follow from the
  // message and its sender; a context naming another entry or node would
  // mislabel the merged trace and re-encode to different bytes.
  if (has_trace) {
    uint16_t gid = 0;
    uint64_t seq = 0;
    if (!msg->TraceKey(&gid, &seq) || gid != frame.trace.gid ||
        seq != frame.trace.seq || frame.trace.origin != src_packed)
      return Status::Corruption("trace context disagrees with the frame");
  }
  frame.src = NodeId::FromPacked(src_packed);
  frame.msg = std::move(msg);
  return frame;
}

Result<Frame> DecodeFrame(const Bytes& buf) {
  return DecodeFrame(buf.data(), buf.size());
}

}  // namespace massbft
