#include "sim/network.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"

namespace massbft {

namespace {

/// Per-node LAN port bandwidth (bits/s), the same in every data center.
constexpr double kLanBps = 2.5e9;

}  // namespace

Network::Network(Simulator* sim, const Topology* topology, DeliverFn deliver)
    : sim_(sim), topology_(topology), deliver_(std::move(deliver)) {
  for (NodeId node : topology_->AllNodes()) states_.try_emplace(node.Packed());
}

void Network::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) {
    wan_bytes_counter_ = nullptr;
    wan_msgs_counter_ = nullptr;
    lan_bytes_counter_ = nullptr;
    lan_msgs_counter_ = nullptr;
    wan_queue_hist_ = nullptr;
    return;
  }
  obs::MetricsRegistry& registry = telemetry_->registry();
  wan_bytes_counter_ = registry.GetCounter("net/wan_bytes_sent");
  wan_msgs_counter_ = registry.GetCounter("net/wan_messages_sent");
  lan_bytes_counter_ = registry.GetCounter("net/lan_bytes_sent");
  lan_msgs_counter_ = registry.GetCounter("net/lan_messages_sent");
  wan_queue_hist_ = nullptr;
}

void Network::set_faults(FaultSpec spec) {
  faults_ = std::move(spec);
  for (NodeId node : topology_->AllNodes()) {
    State(node).fault_rng = Rng(faults_.seed * 0x9E3779B97F4A7C15ULL +
                                static_cast<uint64_t>(node.Packed()) + 1);
  }
}

void Network::SendWan(NodeId src, NodeId dst, MessagePtr message) {
  Send(src, dst, std::move(message), /*wan=*/true);
}

void Network::SendLan(NodeId src, NodeId dst, MessagePtr message) {
  MASSBFT_CHECK(src.group == dst.group);
  Send(src, dst, std::move(message), /*wan=*/false);
}

void Network::Send(NodeId src, NodeId dst, MessagePtr message, bool wan) {
  if (IsCrashed(src) || IsCrashed(dst)) return;
  if (!faults_.any()) {
    Emit(src, dst, std::move(message), wan, /*corrupt=*/false);
    return;
  }
  if (CutByPartition(src, dst)) return;
  // One draw per fault class in a fixed order, so the same seed and sends
  // give the same faults. Loss is silent, like the network it models.
  Rng& rng = FaultRng(src);
  if (rng.NextBool(faults_.drop_rate)) {
    RecordFault(&FaultStats::dropped, "dropped", src, dst, 0);
    return;
  }
  bool corrupt = false;
  SimTime delay = 0;
  if (rng.NextBool(faults_.corrupt_rate)) {
    corrupt = true;
    RecordFault(&FaultStats::corrupted, "corrupted", src, dst, 0);
  } else if (rng.NextBool(faults_.duplicate_rate)) {
    RecordFault(&FaultStats::duplicated, "duplicated", src, dst, 0);
    Forward(src, dst, message, wan, /*corrupt=*/false, 0);
  } else if (rng.NextBool(faults_.delay_rate)) {
    const double delay_ms =
        faults_.delay_min_ms +
        rng.NextDouble() * (faults_.delay_max_ms - faults_.delay_min_ms);
    delay = MillisToSim(delay_ms);
    RecordFault(&FaultStats::delayed, "delayed", src, dst, delay_ms);
  }
  Forward(src, dst, std::move(message), wan, corrupt, delay);
}

void Network::Forward(NodeId src, NodeId dst, MessagePtr message, bool wan,
                      bool corrupt, SimTime delay) {
  const uint64_t key = LinkKey(src, dst);
  if (delay == 0 && !held_.contains(key)) {
    Emit(src, dst, std::move(message), wan, corrupt);
    return;
  }
  // Equal release times fire in scheduling order (Simulator FIFO ties).
  HeldLink& link = held_[key];
  link.release = std::max(sim_->Now() + delay, link.release);
  ++link.count;
  sim_->ScheduleAt(link.release,
                   [this, src, dst, m = std::move(message), wan, corrupt,
                    incarnation = State(src).live.incarnation]() mutable {
                     Release(src, dst, std::move(m), wan, corrupt,
                             incarnation);
                   });
}

void Network::Release(NodeId src, NodeId dst, MessagePtr message, bool wan,
                      bool corrupt, uint64_t incarnation) {
  auto link = held_.find(LinkKey(src, dst));
  if (--link->second.count == 0) held_.erase(link);
  // The sender was up when it held the message, so any later crash moved
  // its incarnation on.
  if (State(src).live.incarnation != incarnation || IsCrashed(dst) ||
      CutByPartition(src, dst))
    return;
  Emit(src, dst, std::move(message), wan, corrupt);
}

void Network::Emit(NodeId src, NodeId dst, MessagePtr message, bool wan,
                   bool corrupt) {
  const size_t bytes = message->ByteSize();
  TrafficStats& stats = State(src).stats;
  (wan ? stats.wan_bytes_sent : stats.lan_bytes_sent) += bytes;
  if (telemetry_ != nullptr) {
    (wan ? wan_bytes_counter_ : lan_bytes_counter_)->Add(bytes);
    (wan ? wan_msgs_counter_ : lan_msgs_counter_)->Add();
  }
  Transmit(src, dst, std::move(message), wan, corrupt);
}

bool Network::CutByPartition(NodeId node, NodeId peer) {
  if (faults_.partitions.empty()) return false;
  const double now_s = SimToSeconds(sim_->Now());
  for (const FaultSpec::Partition& p : faults_.partitions) {
    if (now_s < p.start_s || now_s >= p.end_s) continue;
    auto on_side_a = [&p](uint16_t group) {
      return std::find(p.side_a.begin(), p.side_a.end(), group) !=
             p.side_a.end();
    };
    if (on_side_a(node.group) != on_side_a(peer.group)) {
      RecordFault(&FaultStats::partition_dropped, "partition_dropped", node,
                  peer, 0);
      return true;
    }
  }
  return false;
}

void Network::RecordFault(uint64_t FaultStats::*kind, const char* name,
                          NodeId node, NodeId peer, double detail) {
  ++(fault_stats_.*kind);
  if (telemetry_ == nullptr) return;
  telemetry_->registry().GetCounter(std::string("faults/") + name)->Add();
  telemetry_->RecordEvent(obs::Telemetry::NodeTrack(node.Packed()), "fault",
                          name, sim_->Now(),
                          {"peer", static_cast<double>(peer.Packed())},
                          {"detail", detail});
}

void Network::Transmit(NodeId src, NodeId dst, MessagePtr message, bool wan,
                       bool corrupt) {
  if (src == dst) {
    // Loopback: deliver immediately (no link traversal).
    if (corrupt) return;
    sim_->Schedule(0, [this, dst, src, m = std::move(message)]() {
      if (!IsCrashed(dst)) deliver_(dst, src, m);
    });
    return;
  }
  NodeState& s_src = State(src);
  NodeState& s_dst = State(dst);
  size_t bytes = message->ByteSize();
  double up_bps = wan ? topology_->wan_bps(src) : kLanBps;
  double down_bps = wan ? topology_->wan_bps(dst) : kLanBps;
  Port& up = wan ? s_src.wan : s_src.lan;
  Port& down = wan ? s_dst.wan : s_dst.lan;

  SimTime now = sim_->Now();
  SimTime departure = std::max(now, up.up_busy);
  up.up_busy = departure + SerializationDelay(bytes, up_bps);
  SimTime arrival = up.up_busy + topology_->WanPropagation(src, dst);
  SimTime completion =
      std::max(arrival, down.down_busy + SerializationDelay(bytes, down_bps));
  down.down_busy = completion;

  if (telemetry_ != nullptr) {
    if (wan) {
      if (wan_queue_hist_ == nullptr) {
        wan_queue_hist_ =
            telemetry_->registry().GetHistogram("net/wan_uplink_queue_ms");
      }
      wan_queue_hist_->Record(SimToSeconds(departure - now) * 1e3);
    }
    obs::TraceRecorder& trace = telemetry_->trace();
    if (trace.enabled()) {
      uint32_t track = obs::Telemetry::NodeTrack(src.Packed());
      obs::TraceArgs args{
          {{"bytes", static_cast<double>(bytes)},
           {"type", static_cast<double>(message->type())},
           {"dst", static_cast<double>(dst.Packed())}}};
      if (departure > now)
        trace.RecordSpan(track, "net", wan ? "wan_queue" : "lan_queue", now,
                         departure, args);
      trace.RecordSpan(track, "net", wan ? "wan_transfer" : "lan_transfer",
                       departure, completion, args);
    }
  }

  // A corrupted message occupied its links; the receiver drops it.
  sim_->ScheduleAt(completion,
                   [this, dst, src, m = std::move(message), corrupt]() {
                     if (corrupt || IsCrashed(dst) || CutByPartition(dst, src))
                       return;
                     deliver_(dst, src, m);
                   });
}

void Network::CrashNode(NodeId node) {
  Liveness& live = State(node).live;
  live.down = true;
  ++live.incarnation;
}

void Network::RecoverNode(NodeId node) {
  Liveness& live = State(node).live;
  live.down = false;
  ++live.incarnation;
}

const TrafficStats& Network::StatsFor(NodeId node) const {
  auto it = states_.find(node.Packed());
  MASSBFT_CHECK(it != states_.end());
  return it->second.stats;
}

uint64_t Network::wan_bytes_sent() const {
  uint64_t total = 0;
  for (NodeId node : topology_->AllNodes())
    total += StatsFor(node).wan_bytes_sent;
  return total;
}

uint64_t Network::lan_bytes_sent() const {
  uint64_t total = 0;
  for (NodeId node : topology_->AllNodes())
    total += StatsFor(node).lan_bytes_sent;
  return total;
}

}  // namespace massbft
