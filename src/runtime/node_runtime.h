#ifndef MASSBFT_RUNTIME_NODE_RUNTIME_H_
#define MASSBFT_RUNTIME_NODE_RUNTIME_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/lock_rank.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/config.h"
#include "core/group_node.h"
#include "net/transport.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "workload/workload.h"

namespace massbft {

/// Network implementation that puts messages on a real Transport instead of
/// simulated links. Protocol code (GroupNode and the engines beneath it) is
/// unchanged: it still calls SendWan/SendLan, and the base class still
/// drops a crashed node's traffic, injects faults and counts what it sends;
/// each message that survives is encoded into a wire frame and handed to
/// the transport.
/// Timing comes from the operating system, not the flow model, so the
/// latency/bandwidth parameters of the topology are ignored here.
///
/// Not thread-safe by itself: all sends come from the owning NodeRuntime's
/// event-loop thread.
class TransportNetwork : public Network {
 public:
  TransportNetwork(Simulator* sim, const Topology* topology,
                   Transport* transport);

 protected:
  /// Encodes the message once and hands the frame to
  /// Transport::SendEncoded; a corrupted message has one byte of it
  /// flipped first. With tracing on, an entry-carrying send leaves a
  /// "wire/send" instant on the sender's track.
  void Transmit(NodeId src, NodeId dst, MessagePtr message, bool wan,
                bool corrupt) override;

 private:
  Transport* transport_;
};

/// Hosts one GroupNode on a dedicated thread, with real messaging.
///
/// The protocol stack is callback-driven and schedules all its timers
/// through a Simulator, so the runtime gives each node a *private*
/// Simulator whose clock is mapped onto the wall clock: the event-loop
/// thread sleeps until the earliest pending timer (Simulator::
/// NextEventTime(), interpreted as nanoseconds since Start()) or until a
/// message arrives, then advances the virtual clock to the current wall
/// offset, firing due timers, and handles queued inbound messages. Protocol
/// code therefore runs exactly as in simulation — same engines, same timer
/// chains — but interleaved with real network delivery.
///
/// Threading rules:
///  * Construction happens on the main thread, for every node of the
///    cluster, before any runtime is started (KeyRegistry::RegisterNode is
///    not thread-safe).
///  * After Start(), the GroupNode must only be touched from the event
///    loop: use Post() (fire-and-forget) or Call() (run + wait for result).
///  * After Stop() returns, the loop thread has been joined and the node
///    may be inspected directly from the caller's thread.
class NodeRuntime {
 public:
  /// `registry` and `topology` are shared across the cluster's runtimes and
  /// must outlive them. The runtime takes ownership of `transport` and
  /// builds its own private ClusterContext and Workload instance (caches
  /// and telemetry are per-node — nothing protocol-visible is shared
  /// between node threads except the transport fabric).
  NodeRuntime(NodeId id, const ProtocolConfig& protocol, WorkloadKind workload,
              double workload_scale, KeyRegistry* registry,
              const Topology* topology, std::unique_ptr<Transport> transport);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// Installs the commit callback (fired on this runtime's event-loop
  /// thread). Must be called before Start().
  void set_on_txn_committed(
      std::function<void(const Transaction&, SimTime)> fn) {
    ctx_.on_txn_committed = std::move(fn);
  }

  /// Injects `spec`'s faults into this node's sends, and cuts arriving
  /// messages during its partition windows (Network::set_faults; windows
  /// are offsets from the first Start()). Must be called before Start().
  void set_faults(FaultSpec spec) { network_.set_faults(std::move(spec)); }

  /// Starts the transport and the event loop. The first call also arms the
  /// node's timers (GroupNode::Start()) on the loop thread; a restart after
  /// Stop() posts GroupNode::Recover() instead, the node's rejoin. The
  /// virtual-clock epoch is set on the first start only, so a restarted
  /// node sees its downtime as a forward clock jump rather than a rewind.
  [[nodiscard]] Status Start();

  /// Stops the transport (no further deliveries), then joins the loop
  /// thread. Queued-but-unprocessed work is dropped. Idempotent, and
  /// Start() may be called again afterwards (crash/restart experiments).
  void Stop();

  /// True between a successful Start() and the next Stop().
  bool running() const {
    MutexLock lock(&mu_);
    return running_;
  }

  /// Enqueues `fn` to run on the event-loop thread. Safe from any thread.
  /// Returns false (and drops `fn`) when the runtime is not running.
  bool Post(std::function<void()> fn);

  /// Runs `fn(node)` on the event-loop thread and returns its result; when
  /// the runtime is not running (before Start() / after Stop(), when no
  /// other thread can touch the node) it runs inline instead. Must not be
  /// called from the loop thread itself (it would deadlock).
  template <typename F>
  auto Call(F fn) -> decltype(fn(std::declval<GroupNode&>())) {
    using R = decltype(fn(std::declval<GroupNode&>()));
    std::promise<R> promise;
    std::future<R> future = promise.get_future();
    if (!Post([this, &fn, &promise] { promise.set_value(fn(*node_)); }))
      return fn(*node_);
    return future.get();
  }

  NodeId id() const { return id_; }
  GroupNode& node() { return *node_; }
  Transport& transport() { return *transport_; }
  const TransportNetwork& network() const { return network_; }

  /// This node's private observability context (registry + trace recorder
  /// + flight recorder). Valid for the runtime's whole lifetime.
  obs::Telemetry& telemetry() { return ctx_.telemetry; }
  const obs::Telemetry& telemetry() const { return ctx_.telemetry; }

  /// Work items queued for the event loop but not yet run (introspection;
  /// a sustained backlog means the loop cannot keep up with delivery).
  size_t queue_depth() const {
    MutexLock lock(&mu_);
    return queue_.size();
  }

  /// Nanoseconds of wall clock since Start() — the loop's virtual "now".
  SimTime Elapsed() const;

 private:
  void Loop();
  void Deliver(Frame frame);

  NodeId id_;
  Simulator sim_;
  std::unique_ptr<Transport> transport_;
  const Topology* topology_;
  TransportNetwork network_;
  std::unique_ptr<Workload> workload_;
  ClusterContext ctx_;
  std::unique_ptr<GroupNode> node_;

  // kRuntimeQueue: Post/Deliver grab it from transport reader threads with
  // no other ranked lock held; the loop never calls out while holding it.
  mutable RankedMutex mu_{"runtime.mu", LockRank::kRuntimeQueue};
  /// Signaled under mu_ (new queue_ item or Stop()).
  std::condition_variable_any cv_;
  std::vector<std::function<void()>> queue_ MASSBFT_GUARDED_BY(mu_);
  bool running_ MASSBFT_GUARDED_BY(mu_) = false;
  bool started_once_ MASSBFT_GUARDED_BY(mu_) = false;
  /// Written once under mu_ by the first Start() (before the loop thread
  /// exists) and immutable afterwards; Elapsed() reads it lock-free.
  std::chrono::steady_clock::time_point epoch_;
  std::thread thread_;
};

}  // namespace massbft

#endif  // MASSBFT_RUNTIME_NODE_RUNTIME_H_
