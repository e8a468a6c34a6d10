#ifndef MASSBFT_NET_TCP_TRANSPORT_H_
#define MASSBFT_NET_TCP_TRANSPORT_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/lock_rank.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/rng.h"
#include "net/rx_ring.h"
#include "net/transport.h"

namespace massbft {

namespace obs {
class Counter;
class Gauge;
class Telemetry;
}  // namespace obs

/// Maps every node to its TCP listen port on 127.0.0.1.
using TcpPortMap = std::unordered_map<uint32_t, uint16_t>;  // Packed -> port

/// Assigns consecutive ports starting at `base` to every node of the
/// given group sizes, group-major (the order of Topology::AllNodes()).
/// Fails with InvalidArgument when the range would run past port 65535.
[[nodiscard]] Result<TcpPortMap> MakeLocalPortMap(
    const std::vector<int>& group_sizes, uint16_t base);

/// Length-prefixed frame transport over localhost TCP, built to survive
/// peer failure without ever blocking the caller.
///
/// Threads:
///  * One reader thread polls the listen socket and all accepted
///    connections; each wakeup drains a ready socket with large recv()s
///    into a per-connection FrameReassembler, then decodes and delivers
///    every complete frame in one batch on that thread.
///  * One writer thread owns every outbound connection. Send() only
///    encodes (into the frame's own exactly-sized buffer) and enqueues onto
///    a bounded per-peer queue (drop-with-counter on overflow — BFT
///    protocols tolerate loss, unbounded memory does not), so a send to a
///    dead peer returns in microseconds. The writer coalesces all queued
///    frames for a peer into bounded scatter-gather sendmsg() batches —
///    one syscall moves up to kMaxBatchIov frames — resuming correctly
///    when the kernel accepts a prefix that ends mid-frame. It establishes
///    connections with non-blocking connect() and retries with exponential
///    backoff plus jitter; queued frames wait for the connection and flow
///    once it lands.
///
/// All socket writes use MSG_NOSIGNAL on non-blocking sockets: a peer that
/// closes mid-write yields an error handled by reconnect, never SIGPIPE.
///
/// Connections are used one-directionally: A->B traffic flows on the
/// connection A dialed, B->A on B's. Frames carry the sender id, so no
/// handshake is needed. A connection that delivers a corrupt frame is
/// closed (stream framing is lost once bytes are bad); the sender's writer
/// re-dials with backoff.
///
/// Observability (after BindTelemetry): gauge `net/queue_depth` (total
/// frames queued across peers), counters `net/reconnects` and
/// `net/dropped_backpressure`.
class TcpTransport : public Transport {
 public:
  struct Options {
    /// Per-peer send-queue bounds; the first one exceeded drops the frame.
    size_t max_queue_frames = 1024;
    size_t max_queue_bytes = 16 * 1024 * 1024;
    /// Reconnect backoff: initial delay doubles to the max, each delay
    /// jittered uniformly in [0.5x, 1.5x] to avoid thundering redials.
    int backoff_initial_ms = 5;
    int backoff_max_ms = 640;
  };

  // Two overloads instead of `Options options = Options{}`: a default
  // argument may not use the NSDMIs of a nested class still being defined.
  TcpTransport(NodeId self, TcpPortMap ports);
  TcpTransport(NodeId self, TcpPortMap ports, Options options);
  ~TcpTransport() override;

  [[nodiscard]] Status Start(DeliverFn deliver) override;
  /// Enqueues the frame for the writer thread; never blocks.
  [[nodiscard]] Status SendEncoded(NodeId dst, Bytes wire) override;
  void Stop() override;
  void BindTelemetry(obs::Telemetry* telemetry) override;
  NodeId self() const override { return self_; }
  Stats stats() const override;

 private:
  using Clock = std::chrono::steady_clock;

  struct Conn {
    explicit Conn(int f) : fd(f) {}
    int fd = -1;
    FrameReassembler rx;  // Unconsumed inbound bytes + frame boundaries.
  };

  /// Outbound state machine for one destination. Owned by the writer
  /// thread; all fields are guarded by mu_ (socket syscalls are
  /// non-blocking, so holding mu_ across them is bounded).
  struct Peer {
    enum class State { kIdle, kConnecting, kConnected };
    State state = State::kIdle;
    uint32_t packed = 0;  // Destination NodeId::Packed (for diagnostics).
    int fd = -1;
    std::deque<Bytes> queue;  // Encoded frames; freed once sent or dropped.
    size_t queued_bytes = 0;
    size_t write_off = 0;  // Bytes of queue.front() already on the wire.
    Clock::time_point next_dial{};  // Earliest next connect attempt.
    int backoff_ms = 0;             // 0 = connect immediately.
    bool ever_connected = false;
  };

  void IoLoop();
  void WriterLoop();
  /// Reads the ready socket until EAGAIN (bounded for fairness), decodes
  /// every complete frame and delivers them in order; returns false when
  /// the connection must be closed (EOF or corrupt stream).
  bool ReadAndDeliver(Conn& conn);

  Peer& PeerLocked(uint32_t dst_packed) MASSBFT_REQUIRES(mu_);
  void BeginConnectLocked(Peer& peer, uint16_t port) MASSBFT_REQUIRES(mu_);
  void FinishConnectLocked(Peer& peer) MASSBFT_REQUIRES(mu_);
  void OnConnectedLocked(Peer& peer) MASSBFT_REQUIRES(mu_);
  /// Drops the connection and schedules the next dial with backoff.
  void DisconnectLocked(Peer& peer) MASSBFT_REQUIRES(mu_);
  /// Writes as much queued data as the socket accepts right now.
  void FlushLocked(Peer& peer) MASSBFT_REQUIRES(mu_);
  void UpdateQueueGaugeLocked() MASSBFT_REQUIRES(mu_);
  void WakeWriter();
  /// Records a connection-lifecycle event in the owning node's flight
  /// recorder and (when tracing) as a trace instant on its track, so
  /// reconnects and drops line up with protocol spans in the merged trace.
  void RecordNetEvent(const char* name, double peer, double detail);

  NodeId self_;
  TcpPortMap ports_;
  Options options_;

  // kTransport ranks above the runtime/fault layers that call into Send,
  // and below the obs recorders it calls while held.
  mutable RankedMutex mu_{"tcp.mu", LockRank::kTransport};
  DeliverFn deliver_ MASSBFT_GUARDED_BY(mu_);
  Stats stats_ MASSBFT_GUARDED_BY(mu_);
  bool running_ MASSBFT_GUARDED_BY(mu_) = false;
  std::unordered_map<uint32_t, std::unique_ptr<Peer>> peers_
      MASSBFT_GUARDED_BY(mu_);
  size_t total_queued_frames_ MASSBFT_GUARDED_BY(mu_) = 0;
  Rng jitter_rng_ MASSBFT_GUARDED_BY(mu_);

  // Pre-resolved observability handles (null when unwired).
  obs::Telemetry* telemetry_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Counter* reconnects_counter_ = nullptr;
  obs::Counter* backpressure_counter_ = nullptr;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};         // Wakes the reader.
  int writer_wake_pipe_[2] = {-1, -1};  // Wakes the writer.
  std::thread io_thread_;
  std::thread writer_thread_;
};

}  // namespace massbft

#endif  // MASSBFT_NET_TCP_TRANSPORT_H_
