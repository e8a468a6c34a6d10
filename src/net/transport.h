#ifndef MASSBFT_NET_TRANSPORT_H_
#define MASSBFT_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>

#include "common/status.h"
#include "crypto/signature.h"  // NodeId
#include "net/wire.h"

namespace massbft {

namespace obs {
class Telemetry;
}  // namespace obs

/// Point-to-point frame transport for one node. Every send takes one path:
/// Send() encodes the message with EncodeFrame, and the implementation's
/// one SendEncoded() takes ownership of the frame's buffer. Inbound frames
/// are decoded and handed to the deliver callback.
///
/// Threading contract: Send() may be called from any thread after Start().
/// The deliver callback may be invoked from a transport-internal thread (or
/// from the *sender's* thread for the in-process transport) — receivers
/// must enqueue into their own event loop rather than process inline.
///
/// Liveness contract: Send() never blocks on the network. A send to a dead
/// or slow peer enqueues (or drops, with a counter) and returns
/// immediately; connection management happens on transport-internal
/// threads.
class Transport {
 public:
  using DeliverFn = std::function<void(Frame frame)>;

  struct Stats {
    uint64_t frames_sent = 0;
    uint64_t bytes_sent = 0;
    uint64_t frames_received = 0;
    uint64_t bytes_received = 0;
    /// Frames dropped on receive: CRC mismatch, malformed body, bad header.
    uint64_t decode_errors = 0;
    /// Sends dropped because the destination was unknown or unreachable.
    uint64_t send_errors = 0;
    /// Sends dropped because the destination's bounded queue was full.
    /// BFT protocols tolerate loss; dropping beats unbounded memory.
    uint64_t dropped_backpressure = 0;
    /// Successful connection establishments after the first one per peer
    /// (each one means a previous connection died and backoff recovered).
    uint64_t reconnects = 0;
    /// Data-path syscalls: send/writev calls that moved >= 1 byte, and
    /// recv/read calls that returned >= 1 byte. syscalls-per-frame is the
    /// wire efficiency figure bench_wire tracks (batching drives it toward
    /// zero); connect/poll/wake bookkeeping is excluded. Zero for
    /// transports that make no syscalls (in-process).
    uint64_t send_syscalls = 0;
    uint64_t recv_syscalls = 0;
  };

  virtual ~Transport() = default;

  /// Begins delivering inbound frames. Must be called before Send().
  /// Implementations are restartable: Start() after Stop() resumes
  /// operation (fresh connections, retained counters).
  [[nodiscard]] virtual Status Start(DeliverFn deliver) = 0;

  /// Encodes `msg` as a frame from self() and sends it to `dst`. Delivery
  /// is best-effort (the BFT layer owns retries/timeouts); an error Status
  /// reports only local failures such as an unknown destination or a full
  /// send queue.
  [[nodiscard]] Status Send(NodeId dst, const ProtocolMessage& msg) {
    return SendEncoded(dst, EncodeFrame(msg, self()));
  }

  /// Sends one encoded frame verbatim; the transport owns `wire` from here
  /// on. The bytes need not decode cleanly: TransportNetwork sends a
  /// corrupted message (Network's corrupt fault, sim/network.h) through
  /// it, so receiver-side CRC rejection is exercised for real.
  [[nodiscard]] virtual Status SendEncoded(NodeId dst, Bytes wire) = 0;

  /// Stops delivery and releases transport resources. Idempotent. After
  /// Stop() returns, the deliver callback will not be invoked again.
  virtual void Stop() = 0;

  /// Points the transport at a node's observability context so it can
  /// publish `net/*` series (queue depth, reconnects, backpressure drops).
  /// Must be called before Start(); optional (no-op by default).
  virtual void BindTelemetry(obs::Telemetry* telemetry) { (void)telemetry; }

  virtual NodeId self() const = 0;
  virtual Stats stats() const = 0;
};

}  // namespace massbft

#endif  // MASSBFT_NET_TRANSPORT_H_
