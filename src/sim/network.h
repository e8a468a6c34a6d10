#ifndef MASSBFT_SIM_NETWORK_H_
#define MASSBFT_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "crypto/signature.h"  // NodeId
#include "obs/telemetry.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/topology.h"

namespace massbft {

/// Base class for anything carried over simulated links. Implementations
/// report their real encoded byte size; the network charges exactly that
/// against link bandwidth. Messages are immutable after sending and shared
/// by pointer between hops (what a zero-copy transport would do); the byte
/// accounting is still honest because ByteSize() is the serialized size.
class SimMessage {
 public:
  virtual ~SimMessage() = default;
  virtual size_t ByteSize() const = 0;
  /// Small integer used by receivers to dispatch (see proto/messages.h).
  virtual int type() const = 0;
};

using MessagePtr = std::shared_ptr<const SimMessage>;

/// The bytes one node has sent, by link class.
struct TrafficStats {
  uint64_t wan_bytes_sent = 0;
  uint64_t lan_bytes_sent = 0;
};

/// Fault schedule for every node sending through a Network (paper Section
/// VI-E-style failure experiments). Rates are per-message probabilities,
/// drawn in a fixed order (drop, then at most one of corrupt, duplicate and
/// delay) from one seeded Rng per sending node, so a run with the same seed
/// and message sequence injects the same faults.
struct FaultSpec {
  uint64_t seed = 1;
  /// P(outbound message silently dropped).
  double drop_rate = 0;
  /// P(outbound message sent twice).
  double duplicate_rate = 0;
  /// P(outbound message sent with one byte flipped). Over a real transport
  /// the receiver's CRC rejects it and counts a decode error — corruption
  /// on the wire is exercised end to end; in the simulator the message
  /// occupies its link and is dropped on arrival.
  double corrupt_rate = 0;
  /// P(outbound message held back for a uniform delay in [min, max] ms).
  /// Delay stalls the link rather than reordering it: messages sent to the
  /// same destination after a delayed one queue behind it, preserving
  /// per-link FIFO. Real TCP never reorders within a connection, and the
  /// VTS ordering engine's lower-bound inference (Algorithm 2) is only
  /// sound under that per-channel monotonicity — injecting reorderings
  /// would inject a fault no supported deployment can exhibit.
  double delay_rate = 0;
  double delay_min_ms = 1.0;
  double delay_max_ms = 20.0;

  /// During [start_s, end_s) of the node's clock, messages crossing between
  /// the groups in `side_a` and everyone else are dropped in both
  /// directions.
  struct Partition {
    double start_s = 0;
    double end_s = 0;
    std::vector<uint16_t> side_a;
  };
  std::vector<Partition> partitions;

  bool any() const {
    return drop_rate > 0 || duplicate_rate > 0 || corrupt_rate > 0 ||
           delay_rate > 0 || !partitions.empty();
  }
};

/// What the injector did, by fault class.
struct FaultStats {
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t corrupted = 0;
  uint64_t delayed = 0;
  uint64_t partition_dropped = 0;
  uint64_t total() const {
    return dropped + duplicated + corrupted + delayed + partition_dropped;
  }
};

/// The one seam every message of the protocol stack goes through, in the
/// simulator and in the threaded runtime alike. SendWan/SendLan drop a
/// crashed node's traffic, inject the configured faults (set_faults), count
/// each surviving message once against its sender (the traffic ledger:
/// StatsFor, wan_bytes_sent and the registry's net/* counters), and hand it
/// to Transmit: the flow model below, or a real transport in
/// runtime/TransportNetwork.
///
/// Flow-level network model. Every node has
///   * a WAN uplink and downlink of its configured bandwidth,
///   * a LAN uplink/downlink (shared data-center fabric, per-node port),
/// each modeled as a FIFO serialization queue (`busy-until` per direction).
/// Delivery time of a message =
///   departure  = max(now, uplink_busy);  uplink_busy = departure + ser_up
///   arrival    = uplink_busy + propagation(src, dst)
///   completion = max(arrival, downlink_busy + ser_down);
///                downlink_busy = completion
/// which reproduces the two effects the paper's evaluation rests on: a
/// leader's uplink saturating when it must push f+1 copies per group, and
/// converging flows queueing at a receiver's downlink.
///
/// Messages to/from crashed nodes are silently dropped (crash = the data
/// center went dark, Section VI-E).
class Network {
 public:
  /// Called when a message completes delivery at `dst`.
  using DeliverFn =
      std::function<void(NodeId dst, NodeId src, MessagePtr message)>;

  Network(Simulator* sim, const Topology* topology, DeliverFn deliver);
  virtual ~Network() = default;

  /// Attaches an observability context: the traffic ledger's
  /// net/{wan,lan}_{bytes,messages}_sent counters land in its registry,
  /// and faults are recorded as events. The flow model adds the
  /// net/wan_uplink_queue_ms histogram and — when tracing is enabled — a
  /// queue span (sender uplink contention) plus a transfer span
  /// (serialization + propagation) per message on the sender's track,
  /// annotated with byte size and message type. Pass nullptr to detach.
  void set_telemetry(obs::Telemetry* telemetry);

  /// Injects `spec`'s faults into every later send. Each sending node draws
  /// from its own Rng, seeded from spec.seed and its id. Delays wait on
  /// this network's Simulator and partition windows are read on its clock.
  /// Each fault counts in fault_stats() and, with telemetry attached, as a
  /// `faults/<kind>` counter and a `fault/<kind>` flight-recorder event.
  void set_faults(FaultSpec spec);
  const FaultStats& fault_stats() const { return fault_stats_; }

  /// Sends over WAN (inter-data-center). Also usable intra-group, but
  /// protocol code should use SendLan for that.
  void SendWan(NodeId src, NodeId dst, MessagePtr message);

  /// Sends over the data-center LAN. src and dst must be in one group.
  void SendLan(NodeId src, NodeId dst, MessagePtr message);

  /// True when a partition window separates `node` from `peer` now, and
  /// then counts one drop at `node`. Checked at send, at a held message's
  /// release and, by the receiver, at arrival, so a message already under
  /// way when a window opens is cut too.
  bool CutByPartition(NodeId node, NodeId peer);

  /// A node's one liveness record: whether it is down, and its
  /// incarnation, which every CrashNode and every RecoverNode advances.
  /// Work a node defers belongs to the incarnation that scheduled it
  /// (Actor::At), and a message it holds back for a delay to the
  /// incarnation that sent it.
  struct Liveness {
    bool down = false;
    uint64_t incarnation = 0;
  };
  /// Stable for the network's lifetime: an Actor reads it through this
  /// pointer, with no lookup per message.
  const Liveness* LivenessOf(NodeId node) { return &State(node).live; }

  /// Marks a node crashed: all of its queued/future traffic is dropped,
  /// including messages it holds back for a delay (they die even if the
  /// node recovers before their release).
  void CrashNode(NodeId node);
  void RecoverNode(NodeId node);
  bool IsCrashed(NodeId node) { return State(node).live.down; }

  const TrafficStats& StatsFor(NodeId node) const;
  /// Sum of WAN bytes sent by every node (the paper's Fig 10 metric). A
  /// real-mode node's network sends only that node's messages.
  uint64_t wan_bytes_sent() const;
  /// Sum of LAN bytes sent by every node.
  uint64_t lan_bytes_sent() const;

 protected:
  /// Puts one message that survived fault injection on its link. The
  /// simulator's flow model; TransportNetwork overrides it to encode and
  /// send. `corrupt`: the message goes out with one byte flipped (drawn
  /// from FaultRng(src)) and must not be delivered.
  virtual void Transmit(NodeId src, NodeId dst, MessagePtr message, bool wan,
                        bool corrupt);

  /// The fault stream of sending node `node`.
  Rng& FaultRng(NodeId node) { return State(node).fault_rng; }

  // Observability (optional; see set_telemetry).
  obs::Telemetry* telemetry_ = nullptr;

 private:
  struct Port {
    SimTime up_busy = 0;
    SimTime down_busy = 0;
  };
  struct NodeState {
    Port wan;
    Port lan;
    TrafficStats stats;
    Rng fault_rng;
    Liveness live;
  };
  /// Messages of one (src, dst) link held back by a delay, and the release
  /// time of the last of them: later messages release no earlier.
  struct HeldLink {
    int count = 0;
    SimTime release = 0;
  };

  NodeState& State(NodeId node) { return states_[node.Packed()]; }
  static uint64_t LinkKey(NodeId src, NodeId dst) {
    return (static_cast<uint64_t>(src.Packed()) << 32) | dst.Packed();
  }

  void Send(NodeId src, NodeId dst, MessagePtr message, bool wan);
  /// Counts a message that survived fault injection against its sender,
  /// then transmits it. Every message reaches Transmit through here.
  void Emit(NodeId src, NodeId dst, MessagePtr message, bool wan,
            bool corrupt);
  /// Emits now, or holds the message `delay` (and behind any message
  /// already held on its link) so the link stalls but never reorders.
  void Forward(NodeId src, NodeId dst, MessagePtr message, bool wan,
               bool corrupt, SimTime delay);
  /// A held message's release: the link moves on, and the message is
  /// emitted unless its sender's incarnation ended meanwhile, its receiver
  /// is down or a partition window cuts it.
  void Release(NodeId src, NodeId dst, MessagePtr message, bool wan,
               bool corrupt, uint64_t incarnation);
  /// Counts one injected fault at `node` (peer: the other end).
  void RecordFault(uint64_t FaultStats::*kind, const char* name, NodeId node,
                   NodeId peer, double detail);

  Simulator* sim_;
  const Topology* topology_;
  DeliverFn deliver_;
  std::unordered_map<uint32_t, NodeState> states_;

  FaultSpec faults_;
  FaultStats fault_stats_;
  std::unordered_map<uint64_t, HeldLink> held_;

  obs::Counter* wan_bytes_counter_ = nullptr;
  obs::Counter* wan_msgs_counter_ = nullptr;
  obs::Counter* lan_bytes_counter_ = nullptr;
  obs::Counter* lan_msgs_counter_ = nullptr;
  /// Resolved by the flow model's first WAN transmission, so a real-mode
  /// registry holds no series its runtime cannot fill.
  obs::Histogram* wan_queue_hist_ = nullptr;
};

}  // namespace massbft

#endif  // MASSBFT_SIM_NETWORK_H_
