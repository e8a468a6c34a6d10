#ifndef MASSBFT_RUNTIME_CLUSTER_H_
#define MASSBFT_RUNTIME_CLUSTER_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/lock_rank.h"
#include "common/result.h"
#include "core/cluster_run.h"
#include "net/inproc_transport.h"
#include "net/tcp_transport.h"
#include "obs/stats_server.h"
#include "runtime/node_runtime.h"

namespace massbft {

/// A threaded MassBFT cluster over a real transport.
struct RealClusterConfig {
  /// Latency/bandwidth parameters are ignored by the transport (the real
  /// network provides timing); group_sizes and the fault bounds matter.
  TopologyConfig topology;
  ProtocolConfig protocol;
  WorkloadKind workload = WorkloadKind::kYcsbA;
  double workload_scale = 0.1;
  /// Closed-loop clients per group (one outstanding transaction each).
  int clients_per_group = 16;
  /// Wall-clock transaction-issuing window.
  double duration_seconds = 3.0;
  uint64_t seed = 42;
  /// Signature backend. Real clusters default to real ed25519 (RFC 8032);
  /// kSimulatedHmac remains available for apples-to-apples comparison with
  /// the simulated figures. A node charges the simulated per-op CPU costs
  /// only under kSimulatedHmac — ed25519's arithmetic pays in wall time.
  CryptoScheme crypto = CryptoScheme::kEd25519;
  /// false = in-process transport fabric; true = TCP over localhost.
  bool use_tcp = false;
  uint16_t base_port = 18200;

  /// Network fault injection: when any() is true every node injects these
  /// faults into its sends (NodeRuntime::set_faults; per-node streams
  /// derived from FaultSpec::seed, so runs are reproducible). Partition
  /// windows are offsets from Run()'s start.
  FaultSpec net_faults;
  /// Crash-stop the highest-indexed `crash_nodes_per_group` nodes of every
  /// group (never the leader) at `crash_at_s` seconds into the run. Keep it
  /// <= f per group for the survivors to stay live.
  int crash_nodes_per_group = 0;
  double crash_at_s = 0;
  /// Restart the crashed nodes at this offset (0 = they stay down). The
  /// restarted nodes rejoin via GroupNode::Recover() and are excluded from
  /// the final agreement check, mirroring Experiment::CheckAgreement.
  double restart_at_s = 0;

  // ---- Observability (DESIGN.md §14).
  /// Record per-node protocol traces and write the merged cluster-wide
  /// Chrome trace (one process per node, cross-node flow arrows) here
  /// after the run. Empty = no trace.
  std::string trace_path;
  /// Live introspection: -1 = no stats server; otherwise a localhost HTTP
  /// server on this port (0 = ephemeral, see stats_port()) serving
  /// /metrics (Prometheus text) and /health (cluster JSON) from Setup()
  /// until destruction.
  int stats_port = -1;
};

/// Builds one NodeRuntime per node, drives closed-loop clients against the
/// group leaders for the configured duration, then drains until every node
/// has executed the same entries and checks that all state fingerprints
/// agree. Results are measured over the issue window (commits and their
/// latency, wall clock since Run() started) and built by the same code as
/// Experiment's (core/cluster_run.h). Usage mirrors Experiment:
///   RealCluster cluster(config);
///   MASSBFT_RETURN_IF_ERROR(cluster.Setup());
///   auto result = cluster.Run();   // Result<ExperimentResult>, mode "real"
class RealCluster {
 public:
  explicit RealCluster(RealClusterConfig config);
  ~RealCluster();

  RealCluster(const RealCluster&) = delete;
  RealCluster& operator=(const RealCluster&) = delete;

  /// Builds registry, topology and every runtime (main thread; no threads
  /// are started yet).
  [[nodiscard]] Status Setup();

  /// Runs the cluster: start, issue (executing the crash/restart schedule),
  /// drain, verify agreement across continuously-correct nodes, stop.
  /// Fails with Internal if surviving nodes' states diverge.
  [[nodiscard]] Result<ExperimentResult> Run();

  /// Crash-stops one node: GroupNode::Crash() on its event loop, then the
  /// runtime (transport included) is stopped. Callable mid-run from the
  /// driving thread.
  [[nodiscard]] Status KillNode(NodeId id);

  /// Restarts a killed node, whose runtime posts GroupNode::Recover() — the
  /// node rejoins, catches up from a peer, and resumes, but stays excluded
  /// from agreement checks (it is a catching-up learner; see
  /// GroupNode::rejoined()).
  [[nodiscard]] Status RestartNode(NodeId id);

  const std::vector<std::unique_ptr<NodeRuntime>>& runtimes() const {
    return runtimes_;
  }
  /// The key directory every node signs and verifies through (valid after
  /// Setup()).
  [[nodiscard]] const KeyRegistry& registry() const { return *registry_; }

  /// Merges every node's trace recorder into one Chrome trace file (see
  /// obs::ClusterTraceMerger). Setting RealClusterConfig::trace_path turns
  /// tracing on, and Run() then calls this itself.
  [[nodiscard]] Status WriteMergedTrace(const std::string& path) const;

  /// Bound port of the stats server (valid after Setup() when
  /// config.stats_port >= 0; resolves an ephemeral request).
  uint16_t stats_port() const { return stats_server_.port(); }

 private:
  NodeRuntime* runtime(NodeId id);
  /// Wall-clock nanoseconds since Run() started.
  SimTime SinceStart() const;
  /// Posts the next transaction of `client` to its group leader's event
  /// loop.
  void SubmitNext(size_t client);
  /// Fired on the origin-group leader's event-loop thread.
  void OnTxnCommitted(const Transaction& txn);
  /// True when `rt` should participate in agreement checks: running and
  /// never crashed (a rejoined learner's re-derived state is not
  /// authoritative).
  bool EligibleForAgreement(NodeRuntime& rt);
  /// Waits until every eligible node holds the same state fingerprint and
  /// commits have stopped (two stable readings in a row); false on drain
  /// timeout.
  bool DrainUntilStable();
  /// Executes the configured crash/restart schedule while sleeping out the
  /// transaction-issuing window (offsets from Run()'s start).
  [[nodiscard]] Status IssueWindow();
  /// Starts the localhost stats server and registers /metrics + /health.
  [[nodiscard]] Status StartStatsServer();
  /// Prometheus text exposition of every node's metrics registry.
  std::string MetricsText();
  /// Cluster-health JSON: per-node liveness, progress, queue depth,
  /// retained entries, store keys and bytes, late stamps, stamps below an
  /// inferred bound, takeovers started and transport health, plus
  /// cluster-wide commit/fault counters and the process's resident set
  /// size.
  std::string HealthJson();
  /// Dumps every node's flight recorder to stderr (called on agreement
  /// failure / drain timeout so the last events before the failure are in
  /// the log).
  void DumpFlightRecorders(const char* why);
  /// Cluster-wide late stamps, stamps below an inferred bound, conflicting
  /// stamps, takeovers started and faults injected, as one phrase. Read once every runtime
  /// has stopped.
  std::string BreachSummary();

  RealClusterConfig config_;
  std::unique_ptr<Topology> topology_;
  std::unique_ptr<KeyRegistry> registry_;
  InProcHub hub_;
  std::vector<std::unique_ptr<NodeRuntime>> runtimes_;

  /// Per-group payload generators: group g's instance, and the pool
  /// entries of g's clients, are only touched from g's leader event-loop
  /// thread (all of g's clients submit there).
  std::vector<std::unique_ptr<Workload>> client_workloads_;
  ClientPool clients_;
  /// Origin of SinceStart(); set by Run() before any node thread starts.
  std::chrono::steady_clock::time_point run_start_;
  /// Per client: when its outstanding transaction was submitted.
  std::vector<SimTime> submitted_at_;
  /// Per group: (submit, commit) of every commit, same single-writer
  /// discipline. Run() reads them after the runtimes' threads are joined.
  std::vector<std::vector<std::pair<SimTime, SimTime>>> commits_;

  /// The cross-thread flags below use relaxed ordering: an issuing switch
  /// and a monotone tally read for progress probes and /health.
  std::atomic<bool> issuing_{false};
  std::atomic<uint64_t> committed_{0};
  bool setup_done_ = false;

  /// Serializes node lifecycle transitions (KillNode/RestartNode/final
  /// stop) against stats-server handlers: a handler's NodeRuntime::Call
  /// must never overlap a Stop() that would clear the queued call before
  /// it runs. Outermost rank: held across runtime/transport teardown,
  /// never taken on event loops.
  RankedMutex introspection_mu_{"cluster.introspection_mu",
                                LockRank::kClusterIntrospection};
  obs::StatsServer stats_server_;

  /// Nodes crash-stopped by KillNode (in kill order).
  std::vector<NodeId> killed_ MASSBFT_GUARDED_BY(introspection_mu_);
};

}  // namespace massbft

#endif  // MASSBFT_RUNTIME_CLUSTER_H_
