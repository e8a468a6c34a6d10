#ifndef MASSBFT_CORE_EXPERIMENT_H_
#define MASSBFT_CORE_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/cluster_run.h"
#include "core/config.h"
#include "core/group_node.h"
#include "obs/telemetry.h"
#include "crypto/signature.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "workload/workload.h"

namespace massbft {

/// Fault injection schedule (paper Section VI-E).
struct FaultPlan {
  /// Byzantine chunk-tampering nodes per group (the highest-indexed ones),
  /// active from `byzantine_from`.
  int byzantine_per_group = 0;
  SimTime byzantine_from = 0;
  /// Crash every node of this group at `crash_at` (-1 = none).
  int crash_group = -1;
  SimTime crash_at = 0;
  /// Recover the crashed group at this time (0 = stays down). The group
  /// rejoins, catches up from a peer and resumes serving its clients
  /// (paper Section V-C).
  SimTime recover_at = 0;
};

/// One simulated cluster run: topology + protocol + workload + faults.
struct ExperimentConfig {
  TopologyConfig topology;
  ProtocolConfig protocol;
  WorkloadKind workload = WorkloadKind::kYcsbA;
  /// Scales table cardinalities (1.0 = paper sizes). Tests use small
  /// scales for speed; benchmarks use 1.0.
  double workload_scale = 1.0;
  /// Closed-loop clients per group (each has one transaction outstanding).
  int clients_per_group = 400;
  SimTime duration = 12 * kSecond;
  SimTime warmup = 3 * kSecond;
  uint64_t seed = 42;
  FaultPlan faults;
  /// Execute on every node (agreement tests) instead of leaders only.
  bool execute_on_all_nodes = false;
  /// Record protocol trace spans (off by default; see Experiment::
  /// WriteTrace). Metrics counters/histograms are always collected.
  bool enable_tracing = false;
};

/// Builds and drives one simulated cluster. Usage:
///   Experiment exp(config);
///   MASSBFT_RETURN_IF_ERROR(exp.Setup());
///   ExperimentResult r = exp.Run();
class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  Status Setup();
  ExperimentResult Run();

  // ---- Observability.
  /// Cluster-wide telemetry (valid after Setup()).
  obs::Telemetry& telemetry() { return ctx_->telemetry; }
  /// Writes the recorded protocol trace as Chrome trace-event JSON
  /// (requires ExperimentConfig::enable_tracing): the simulator's one
  /// recorder as a single process of ClusterTraceMerger's output.
  Status WriteTrace(const std::string& path) const;

  // ---- Test hooks.
  Simulator& sim() { return *sim_; }
  Network& network() { return *network_; }
  GroupNode* node(NodeId id);
  const std::vector<std::unique_ptr<GroupNode>>& nodes() const {
    return nodes_;
  }
  /// Verifies all continuously-correct executing nodes executed identical
  /// prefixes (CheckExecutionPrefixes). Returns the length of the common
  /// prefix; -1 on divergence. Crashed and rejoined nodes are excluded: a
  /// rejoining replica is a catching-up learner whose authoritative state
  /// would come from a snapshot in production (see GroupNode::rejoined()).
  int64_t CheckAgreement() const;

 private:
  void SubmitNext(size_t client);
  void OnTxnCommitted(const Transaction& txn, SimTime commit_time);

  ExperimentConfig config_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Topology> topology_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<KeyRegistry> registry_;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<MetricsCollector> metrics_;
  std::unique_ptr<ClusterContext> ctx_;
  std::vector<std::unique_ptr<GroupNode>> nodes_;
  ClientPool clients_;
  bool setup_done_ = false;
};

}  // namespace massbft

#endif  // MASSBFT_CORE_EXPERIMENT_H_
