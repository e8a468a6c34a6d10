#ifndef MASSBFT_NET_WIRE_H_
#define MASSBFT_NET_WIRE_H_

#include <cstdint>
#include <memory>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/signature.h"  // NodeId
#include "proto/messages.h"

namespace massbft {

/// Frame layout (little-endian, DESIGN.md §12/§14):
///
///   offset  size  field
///        0     4  magic "MBFT"
///        4     1  wire version
///        5     1  message type (MessageType)
///        6     1  flags (bit 0: trace context present)
///        7     4  sender NodeId (NodeId::Packed)
///       11     4  body length
///       15     4  CRC-32 over bytes [4, 15), the trace context and the body
///       19    22  trace context, iff flag bit 0 (gid u16, seq u64,
///                 origin NodeId u32, origin timestamp ns u64)
///        …   ...  body (ProtocolMessage::EncodeBodyTo)
///
/// The magic is excluded from the CRC so a resynchronizing reader can
/// cheaply test candidate offsets; everything else is covered. The trace
/// context flag is forced by the message type (its registry row's
/// carries_trace), never by configuration, so frame sizes match the
/// simulator's ByteSize() accounting exactly whether or not tracing is on.

/// On-wire bytes 'M' 'B' 'F' 'T' read as a little-endian u32.
constexpr uint32_t kWireMagic = 0x5446424Du;
// v5: every ordering fact (commit, stamp, epoch seal) travels in one
// GroupRelay body; v4 made bodies carry no field that is dead or that
// restates a value the receiver already has (DESIGN.md §12).
constexpr uint8_t kWireVersion = 5;
constexpr size_t kFrameHeaderBytes = 19;
constexpr uint8_t kFrameFlagTraceContext = 0x01;
// The simulator charges kFrameOverheadBytes per message; the real wire must
// cost exactly the same.
static_assert(kFrameHeaderBytes == kFrameOverheadBytes,
              "frame header layout diverged from simulated accounting");

/// Decode-side cap on the claimed body length: bounds the allocation a
/// malformed or hostile frame can trigger. Generous — the largest honest
/// frame is an entry transfer of a full batch (a few MB).
constexpr uint32_t kMaxBodyBytes = 64u << 20;

/// Trace context carried by entry-bearing frames (DESIGN.md §14): the
/// entry's identity plus where and when this hop was sent. `origin_ts_ns`
/// is obs::TraceClock::NowNs() at encode time — already on the in-process
/// shared trace axis, so the receiver can pin a cross-node flow arrow
/// without any clock reconciliation.
struct TraceContext {
  uint16_t gid = 0;
  uint64_t seq = 0;
  uint32_t origin = 0;  // NodeId::Packed of the sending node.
  uint64_t origin_ts_ns = 0;
};
static_assert(kTraceContextBytes == 2 + 8 + 4 + 8,
              "wire trace context layout diverged from proto accounting");

/// A decoded frame: who sent it, the reconstructed message, and the trace
/// context when the message type carries one (has_trace mirrors
/// msg->info().carries_trace; DecodeFrame enforces it).
struct Frame {
  NodeId src;
  std::unique_ptr<ProtocolMessage> msg;
  bool has_trace = false;
  TraceContext trace;
};

/// Serializes `msg` into a self-contained frame from `src`. For
/// entry-carrying types, stamps a trace context with the entry key from
/// msg.TraceKey() and origin_ts_ns = obs::TraceClock::NowNs().
///
/// The frame owns one buffer, reserved to msg.ByteSize() (the exact frame
/// size) and written in a single pass: body length and CRC are patched in
/// place once the payload is written, so no intermediate body or trace
/// buffer exists and the buffer never regrows (DESIGN.md §15).
[[nodiscard]] Bytes EncodeFrame(const ProtocolMessage& msg, NodeId src);
/// Same, with an explicit origin timestamp (deterministic tests).
[[nodiscard]] Bytes EncodeFrame(const ProtocolMessage& msg, NodeId src,
                                uint64_t origin_ts_ns);

/// Parses one complete frame. The buffer must contain exactly the frame
/// (PeekFrameLength gives the boundary when streaming). Returns Corruption
/// on bad magic/version/length/CRC, unknown type, or malformed body.
[[nodiscard]] Result<Frame> DecodeFrame(const uint8_t* data, size_t len);
[[nodiscard]] Result<Frame> DecodeFrame(const Bytes& buf);

/// Streaming helper: given at least kFrameHeaderBytes of buffered input,
/// returns the total length of the frame starting at `data` (header +
/// body), validating magic, version and the body-length cap so a reader
/// never waits on a frame that can't be completed.
[[nodiscard]] Result<size_t> PeekFrameLength(const uint8_t* data, size_t len);

}  // namespace massbft

#endif  // MASSBFT_NET_WIRE_H_
