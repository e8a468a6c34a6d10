#ifndef MASSBFT_CORE_CLUSTER_RUN_H_
#define MASSBFT_CORE_CLUSTER_RUN_H_

// What the simulated driver (core/Experiment) and the threaded one
// (runtime/RealCluster) share, so both report the same fields computed by
// the same code: clients, result building, agreement (DESIGN.md §12).

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "crypto/signature.h"
#include "obs/telemetry.h"
#include "proto/entry.h"
#include "sim/metrics.h"
#include "workload/workload.h"

namespace massbft {

/// The Fig 11 breakdown: latency sums over the obs::Phase spans the nodes
/// record through their obs::Telemetry, and counts (see BuildResult).
struct PhaseStats {
  double batching_ms = 0;     // Txn submit -> batch formed.
  double local_ms = 0;        // Batch formed -> local PBFT committed.
  double encode_ms = 0;       // RS encode + Merkle build CPU span.
  double global_ms = 0;       // Local commit -> global commit.
  double rebuild_ms = 0;      // Chunk arrival -> entry rebuilt (receivers).
  double exec_ms = 0;         // Global commit -> executed (+ VTS wait).
  uint64_t entries = 0;
  uint64_t rebuilds = 0;
  uint64_t txns = 0;
  uint64_t conflict_aborts = 0;
  double batch_size_sum = 0;
};

/// Aggregated outcome of a run.
struct ExperimentResult {
  /// "sim" for discrete-event runs, "real" when produced by the threaded
  /// runtime over an actual transport (runtime/RealCluster).
  std::string mode = "sim";
  /// Signature backend the run used (CryptoSchemeName: "hmac-sim" or
  /// "ed25519").
  std::string crypto_mode = "hmac-sim";
  /// Fraction of signature checks that rode the batched certificate path
  /// (KeyRegistry::verify_batch_ratio).
  double verify_batch_ratio = 0;
  double throughput_tps = 0;
  double mean_latency_ms = 0;
  double p50_latency_ms = 0;
  double p99_latency_ms = 0;
  uint64_t committed_txns = 0;
  /// Permanently-aborted (business-abort) transactions: they completed
  /// deterministically with no effects and were not retried.
  uint64_t aborted_txns = 0;
  uint64_t conflict_aborts = 0;
  double avg_batch_size = 0;
  /// Encoded bytes actually put on (simulated or real) links. In sim mode
  /// these are the same encoder-derived sizes the transport would send.
  uint64_t total_wan_bytes = 0;
  uint64_t total_lan_bytes = 0;
  /// Entries the group leaders batched (empty liveness entries included).
  uint64_t entries_proposed = 0;
  /// WAN bytes per proposed entry (replication efficiency, Fig 10).
  double wan_bytes_per_entry = 0;
  PhaseStats phases;
  std::vector<MetricsCollector::TimelinePoint> timeline;
  uint64_t sim_events = 0;
  /// Host wall-clock cost of the Run() event loop (not simulated time).
  double wall_ms = 0;
  /// Simulator events retired per wall-clock second (event-loop speed).
  double events_per_sec = 0;
  /// Simulated seconds per wall-clock second (>1 = faster than real time).
  double sim_time_ratio = 0;

  // ---- Transport health (real mode; all zero in sim mode). Aggregated
  // across every node's transport after the run.
  uint64_t net_send_errors = 0;
  uint64_t net_decode_errors = 0;
  uint64_t net_reconnects = 0;
  uint64_t net_dropped_backpressure = 0;
  /// Kernel round-trips the batched wire path actually paid (DESIGN.md
  /// §15): far below the frame count when sendmsg coalescing is working.
  uint64_t net_send_syscalls = 0;
  uint64_t net_recv_syscalls = 0;
  /// Messages dropped/duplicated/corrupted/delayed/cut by a partition by
  /// the network's fault injection (a FaultSpec; see sim/network.h).
  uint64_t faults_injected = 0;
  /// Nodes crash-stopped by the run's fault schedule.
  int nodes_killed = 0;

  // ---- Breaches of Algorithm 2's input rules, summed over every node
  // (DESIGN.md §7): stamps applied below their assigner's highest, stamps
  // below a bound the VTS engine had already inferred, stamps that give an
  // element a second value, and takeovers.
  uint64_t late_stamps = 0;
  uint64_t stamps_below_inferred = 0;
  uint64_t conflicting_stamps = 0;
  uint64_t takeovers_started = 0;

  /// Machine-readable dump of every field above (one JSON object).
  std::string ToJson() const;
};

/// Closed-loop clients, `clients_per_group` per group, each with one
/// transaction outstanding. A client is addressed by its pool index
/// (group-major); the transactions it issues carry its packed id.
class ClientPool {
 public:
  ClientPool() = default;
  /// Forks one rng per client from `seed_rng`, group by group.
  ClientPool(int num_groups, int clients_per_group, Rng& seed_rng);

  size_t size() const { return clients_.size(); }
  int group(size_t client) const {
    return static_cast<int>(client / static_cast<size_t>(per_group_));
  }
  /// Transaction::client of `client`: (group << 20) | index in group.
  uint32_t id(size_t client) const;

  /// `client`'s next transaction, stamped `submit_time`, its payload drawn
  /// from `workload` with the client's own rng.
  Transaction Next(size_t client, Workload& workload, SimTime submit_time);

  /// The pool index of the client that issued `txn` (the inverse of id());
  /// nullopt when no client of this pool did.
  std::optional<size_t> ClientOf(const Transaction& txn) const;

 private:
  struct Client {
    Rng rng;
    uint64_t next_txn = 0;
  };
  int per_group_ = 0;
  std::vector<Client> clients_;
};

/// The result both drivers report: throughput, latency and timeline from
/// `commits`; phases, aborts, batch sizes, entry and breach counts summed over
/// `telemetry` (the one shared context in sim mode, every node's own in
/// real mode); the crypto figures from `keys`.
[[nodiscard]] ExperimentResult BuildResult(
    const MetricsCollector& commits,
    const std::vector<obs::Telemetry*>& telemetry, const KeyRegistry& keys,
    uint64_t wan_bytes, uint64_t lan_bytes);

/// "group/index": how reports and logs name a node.
std::string NodeName(NodeId node);

/// The (gid, seq) entries one replica executed, in execution order.
using ExecutionLog = std::vector<std::pair<uint16_t, uint64_t>>;

/// Agreement over executed entries (Theorem V.6): every log must be a
/// prefix of the longest. Returns the length of the shortest log (the
/// prefix all replicas share; 0 for no logs), or Internal naming the
/// first replica whose log departs from the longest, the position, the
/// (gid, seq) entry each of the two logs holds there, and both lengths.
Result<size_t> CheckExecutionPrefixes(
    const std::vector<std::pair<NodeId, const ExecutionLog*>>& logs);

}  // namespace massbft

#endif  // MASSBFT_CORE_CLUSTER_RUN_H_
