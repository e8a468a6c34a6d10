#ifndef MASSBFT_SIM_ACTOR_H_
#define MASSBFT_SIM_ACTOR_H_

#include <algorithm>
#include <functional>
#include <memory>

#include "crypto/signature.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace massbft {

/// Simulated signature costs (charged in SimTime). Defaults approximate
/// the paper's ecs.c6.2xlarge nodes: ED25519-class signature operations
/// dominate; execution and hashing are comparatively cheap.
struct CpuModel {
  SimTime sign_cost = 50 * kMicrosecond;
  SimTime verify_cost = 100 * kMicrosecond;
};

/// Cores per node (the paper's ecs.c6.2xlarge has 8).
constexpr int kCores = 8;
/// Hash throughput charge per byte (SHA-256 ~1 GB/s per core).
constexpr double kHashNsPerByte = 1.0;
/// Reed-Solomon encode/decode charge per byte (vectorized RS ~1 GB/s).
constexpr double kEcNsPerByte = 1.0;
/// Executing one transaction against the in-memory store.
constexpr SimTime kExecCost = 5 * kMicrosecond;

/// Serial-resource approximation of a multi-core CPU: operations queue
/// FIFO, each charged cost/kCores (a saturated k-core machine processes k
/// times faster than one core; latency of an individual op is under-charged
/// but throughput — the quantity the paper's bottleneck arguments rest on —
/// is exact).
class CpuAccount {
 public:
  CpuAccount(Simulator* sim, CpuModel model) : sim_(sim), model_(model) {}

  const CpuModel& model() const { return model_; }

  /// Charges `cost` of single-core work; returns the completion time.
  SimTime Charge(SimTime cost) {
    SimTime start = std::max(sim_->Now(), busy_until_);
    busy_until_ = start + cost / kCores;
    total_charged_ += cost;
    return busy_until_;
  }

  SimTime ChargeVerify(int count = 1) {
    return Charge(model_.verify_cost * count);
  }
  SimTime ChargeSign(int count = 1) { return Charge(model_.sign_cost * count); }
  SimTime ChargeHash(size_t bytes) {
    return Charge(
        static_cast<SimTime>(kHashNsPerByte * static_cast<double>(bytes)));
  }
  SimTime ChargeEc(size_t bytes) {
    return Charge(
        static_cast<SimTime>(kEcNsPerByte * static_cast<double>(bytes)));
  }
  SimTime ChargeExec(int txns) { return Charge(kExecCost * txns); }

  SimTime busy_until() const { return busy_until_; }
  /// Total single-core-equivalent nanoseconds charged (utilization probe).
  SimTime total_charged() const { return total_charged_; }

 private:
  Simulator* sim_;
  CpuModel model_;
  SimTime busy_until_ = 0;
  SimTime total_charged_ = 0;
};

/// Base class for protocol node implementations. Owns the node's CPU
/// account and wraps network access; subclasses implement HandleMessage.
/// The node's liveness lives in the network's record (Network::Liveness).
class Actor {
 public:
  Actor(Simulator* sim, Network* network, NodeId id, CpuModel cpu_model)
      : sim_(sim),
        network_(network),
        id_(id),
        live_(network->LivenessOf(id)),
        cpu_(sim, cpu_model) {}
  virtual ~Actor() = default;

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  NodeId id() const { return id_; }
  bool crashed() const { return live_->down; }

  /// Delivery entry point: messages whose network transit completed.
  /// `from` is the sending node.
  virtual void HandleMessage(NodeId from, MessagePtr message) = 0;

  /// Crash/recover hooks (Fig 15 group-failure experiment). Each starts a
  /// new incarnation, so no work deferred before it ever runs.
  void Crash() { network_->CrashNode(id_); }
  virtual void Recover() { network_->RecoverNode(id_); }

  /// Read-only CPU accounting (utilization probes in tests/benches).
  const CpuAccount& cpu_account() const { return cpu_; }

 protected:
  CpuAccount& cpu() { return cpu_; }
  SimTime Now() const { return sim_->Now(); }

  void SendWan(NodeId dst, MessagePtr message) {
    network_->SendWan(id_, dst, std::move(message));
  }
  void SendLan(NodeId dst, MessagePtr message) {
    network_->SendLan(id_, dst, std::move(message));
  }
  /// The one way a node defers work: `fn` runs at `when` only if the node
  /// is then up and still in the incarnation that scheduled it. Templated
  /// so the guard captures the concrete callable: captures up to 32 bytes
  /// keep the whole event inside the heap record (see InlineFunction).
  void At(SimTime when, auto fn) {
    sim_->ScheduleAt(when, [this, incarnation = live_->incarnation,
                            fn = std::move(fn)]() mutable {
      if (!live_->down && live_->incarnation == incarnation) fn();
    });
  }
  void After(SimTime delay, auto fn) { At(Now() + delay, std::move(fn)); }
  /// Runs `fn` every `period` from now until the incarnation ends.
  void Every(SimTime period, auto fn) {
    After(period, [this, period, fn = std::move(fn)]() mutable {
      fn();
      Every(period, std::move(fn));
    });
  }

 private:
  Simulator* sim_;
  Network* network_;
  NodeId id_;
  const Network::Liveness* live_;
  CpuAccount cpu_;
};

}  // namespace massbft

#endif  // MASSBFT_SIM_ACTOR_H_
