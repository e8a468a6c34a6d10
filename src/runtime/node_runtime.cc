#include "runtime/node_runtime.h"

#include <utility>

#include "obs/trace_clock.h"

namespace massbft {

TransportNetwork::TransportNetwork(Simulator* sim, const Topology* topology,
                                   Transport* transport)
    : Network(sim, topology, /*deliver=*/nullptr), transport_(transport) {}

void TransportNetwork::Transmit(NodeId src, NodeId dst, MessagePtr message,
                                bool /*wan*/, bool corrupt) {
  // Every message in the protocol stack is a ProtocolMessage; SimMessage is
  // only the byte-accounting face the simulated network sees.
  const auto& msg = static_cast<const ProtocolMessage&>(*message);
  if (telemetry_ != nullptr && telemetry_->tracing()) {
    uint16_t gid = 0;
    uint64_t seq = 0;
    if (msg.TraceKey(&gid, &seq)) {
      telemetry_->trace().RecordInstant(
          obs::Telemetry::NodeTrack(src.Packed()), "wire", "send",
          telemetry_->TraceNowNs(),
          obs::TraceArgs{{{"gid", static_cast<double>(gid)},
                          {"seq", static_cast<double>(seq)},
                          {"dst", static_cast<double>(dst.Packed())}}});
    }
  }
  Bytes wire = EncodeFrame(msg, src);
  if (corrupt) {
    // Real mangled bytes go on the wire, so the receiver's CRC rejects them.
    Rng& rng = FaultRng(src);
    const size_t index = rng.NextBelow(wire.size());
    wire[index] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
  }
  // Best-effort, like a datagram over an unreliable link: the BFT layer
  // owns retries. The transport counts the failure in its stats.
  (void)transport_->SendEncoded(dst, std::move(wire));
}

NodeRuntime::NodeRuntime(NodeId id, const ProtocolConfig& protocol,
                         WorkloadKind workload, double workload_scale,
                         KeyRegistry* registry, const Topology* topology,
                         std::unique_ptr<Transport> transport)
    : id_(id),
      transport_(std::move(transport)),
      topology_(topology),
      network_(&sim_, topology, transport_.get()),
      workload_(MakeWorkload(workload, workload_scale)) {
  ctx_.registry = registry;
  ctx_.topology = topology;
  ctx_.workload = workload_.get();
  // Wire the transport's and the network's net/* series into this node's
  // registry before any thread exists (instrument handles must be resolved
  // single-threaded).
  transport_->BindTelemetry(&ctx_.telemetry);
  network_.set_telemetry(&ctx_.telemetry);
  node_ = std::make_unique<GroupNode>(&sim_, &network_, id, protocol, &ctx_);
}

NodeRuntime::~NodeRuntime() { Stop(); }

Status NodeRuntime::Start() {
  bool first_start;
  {
    MutexLock lock(&mu_);
    if (running_) return Status::FailedPrecondition("runtime already running");
    running_ = true;
    first_start = !started_once_;
    // The virtual clock's epoch is set exactly once: a restarted node's
    // simulator must keep moving forward (its pending timers were armed
    // against the original epoch), so downtime appears as a clock jump,
    // never a clock rewind.
    if (first_start) {
      epoch_ = std::chrono::steady_clock::now();
      started_once_ = true;
      // Anchor this node's timebase (ns since epoch_) on the process trace
      // clock, read at the same moment the epoch is taken: the cluster
      // merger shifts every node's events by this offset onto one axis,
      // and transport threads stamp events via Telemetry::TraceNowNs().
      ctx_.telemetry.set_trace_anchor_ns(obs::TraceClock::NowNs());
    }
  }
  Status s = transport_->Start([this](Frame frame) { Deliver(std::move(frame)); });
  if (!s.ok()) {
    MutexLock lock(&mu_);
    running_ = false;
    return s;
  }
  thread_ = std::thread([this] { Loop(); });
  ctx_.telemetry.RecordEvent(obs::Telemetry::NodeTrack(id_.Packed()), "node",
                             first_start ? "start" : "restart",
                             ctx_.telemetry.TraceNowNs());
  // First boot arms the node's timers; a restart rejoins (paper Section
  // V-C), which starts a new incarnation and arms them again.
  if (first_start) {
    Post([this] { node_->Start(); });
  } else {
    Post([this] { node_->Recover(); });
  }
  return Status::OK();
}

void NodeRuntime::Stop() {
  // Stop the transport first so no further deliveries are posted, then
  // wake and join the loop.
  if (transport_) transport_->Stop();
  {
    MutexLock lock(&mu_);
    if (!running_) return;
    running_ = false;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
  ctx_.telemetry.RecordEvent(obs::Telemetry::NodeTrack(id_.Packed()), "node",
                             "stop", ctx_.telemetry.TraceNowNs());
  // Work posted but never run dies here; a restart must not replay a
  // stale batch from before the crash.
  MutexLock lock(&mu_);
  queue_.clear();
}

bool NodeRuntime::Post(std::function<void()> fn) {
  {
    MutexLock lock(&mu_);
    if (!running_) return false;
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
  return true;
}

SimTime NodeRuntime::Elapsed() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void NodeRuntime::Deliver(Frame frame) {
  // The receive side of cross-node trace stitching: every entry-carrying
  // frame leaves a "wire/recv" instant on this node's track, annotated
  // with the sender-stamped trace context. The merger synthesizes flow
  // arrows purely from these instants (origin_ts is already on the shared
  // process axis), so no send/recv pairing search is needed.
  if (frame.has_trace && ctx_.telemetry.tracing()) {
    ctx_.telemetry.trace().RecordInstant(
        obs::Telemetry::NodeTrack(id_.Packed()), "wire", "recv",
        ctx_.telemetry.TraceNowNs(),
        obs::TraceArgs{
            {{"gid", static_cast<double>(frame.trace.gid)},
             {"seq", static_cast<double>(frame.trace.seq)},
             {"origin", static_cast<double>(frame.trace.origin)},
             {"origin_ts", static_cast<double>(frame.trace.origin_ts_ns)}}});
  }
  // Re-wrap as the shared-pointer type HandleMessage expects. The lambda
  // must be copyable for std::function, hence shared_ptr.
  MessagePtr msg(std::move(frame.msg));
  NodeId src = frame.src;
  // The partition check runs on the loop, where this node's clock and
  // fault state live.
  Post([this, src, msg] {
    if (!network_.CutByPartition(id_, src)) node_->HandleMessage(src, msg);
  });
}

void NodeRuntime::Loop() {
  std::vector<std::function<void()>> batch;
  for (;;) {
    {
      MutexLock lock(&mu_);
      if (queue_.empty() && running_) {
        SimTime next = sim_.NextEventTime();
        if (next == Simulator::kNoEvent) {
          // No pending timers: sleep until a message or Stop() wakes us.
          // The bounded wait is belt-and-braces against a lost notify.
          cv_.wait_for(mu_, std::chrono::milliseconds(50));
        } else {
          cv_.wait_until(mu_, epoch_ + std::chrono::nanoseconds(next));
        }
      }
      if (!running_) break;
      batch.swap(queue_);
    }
    // Advance the virtual clock to "now", firing due timers, then handle
    // inbound messages at the advanced time. Zero-delay work scheduled by
    // the handlers is already due, so the next iteration runs it without
    // sleeping.
    sim_.RunUntil(Elapsed());
    for (auto& fn : batch) fn();
    batch.clear();
  }
}

}  // namespace massbft
