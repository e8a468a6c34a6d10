#ifndef MASSBFT_CORE_GROUP_NODE_H_
#define MASSBFT_CORE_GROUP_NODE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "consensus/pbft/certifier.h"
#include "consensus/pbft/pbft.h"
#include "consensus/raft/raft.h"
#include "core/config.h"
#include "core/global_membership.h"
#include "crypto/signature.h"
#include "db/aria.h"
#include "db/kv_store.h"
#include "obs/telemetry.h"
#include "ordering/ordering_engine.h"
#include "proto/entry.h"
#include "proto/messages.h"
#include "replication/encoder.h"
#include "replication/rebuilder.h"
#include "replication/transfer_plan.h"
#include "sim/actor.h"
#include "sim/topology.h"
#include "workload/workload.h"

namespace massbft {

/// State shared by every node of one simulated cluster.
struct ClusterContext {
  KeyRegistry* registry = nullptr;
  const Topology* topology = nullptr;
  Workload* workload = nullptr;
  /// Observability: metrics registry, trace and flight recorders. The
  /// simulator's nodes share one context, so this is cluster-wide there;
  /// a real-mode node has its own.
  obs::Telemetry telemetry;

  /// Client commit notification: fired once per transaction by the
  /// executing leader of the transaction's origin group.
  std::function<void(const Transaction&, SimTime commit_time)>
      on_txn_committed;

  /// Encoding cache, keyed so Byzantine (tampered) encodings never
  /// collide with correct ones. It is result-neutral: encoding is
  /// deterministic, and each node is charged its CPU cost on a hit or a
  /// miss. Every node rebuilds, and checks the certificate of, what it
  /// stores itself.
  ///
  /// (entry digest, plan n_total) -> that entry's chunks, erased when a
  /// node executes the entry. A real-mode node has a context of its own,
  /// so its cache holds only entries in flight; the simulator's nodes
  /// share one, and a sender that encodes after some node executed the
  /// entry encodes it again.
  std::map<std::pair<Digest, int>, std::shared_ptr<const EncodedEntry>>
      encode_cache;

  /// Collusion channel for the Fig 15 Byzantine experiment: tampered
  /// encodings shared among faulty nodes (out-of-band in a real attack).
  std::map<std::pair<Digest, int>, std::shared_ptr<const EncodedEntry>>
      tampered_cache;
};

/// One replica node. A single class implements every evaluated protocol
/// (MassBFT, Baseline, GeoBFT, Steward, ISS and the BR/EBR ablations),
/// selected by ProtocolConfig::kind — the protocols share batching, local
/// PBFT, the entry store and execution, and differ only in their Table II
/// row (ShapeOf): the replication send path, global consensus usage and
/// the ordering engine.
class GroupNode : public Actor {
 public:
  struct FaultConfig {
    /// Byzantine chunk tampering from `byzantine_from` on (Fig 15).
    bool byzantine = false;
    SimTime byzantine_from = 0;
  };

  GroupNode(Simulator* sim, Network* network, NodeId id,
            const ProtocolConfig& config, ClusterContext* ctx,
            FaultConfig fault);
  GroupNode(Simulator* sim, Network* network, NodeId id,
            const ProtocolConfig& config, ClusterContext* ctx)
      : GroupNode(sim, network, id, config, ctx, FaultConfig{}) {}
  ~GroupNode() override;

  /// Arms batch/heartbeat/epoch timers. Call once after all nodes exist.
  void Start();

  /// Client transaction ingestion (group leader only). Charges client
  /// signature verification.
  void SubmitClientTxn(Transaction txn);

  void HandleMessage(NodeId from, MessagePtr message) override;

  /// Rejoins a crashed node (paper Section V-C): timers restart; if this
  /// is the group leader it requests catch-up from a peer group leader and
  /// resumes proposing once missed state is replayed.
  void Recover() override;

  /// True once this node has rejoined after a crash. A rejoined replica is
  /// a catching-up learner: it proposes and accepts safely (certificates
  /// and quorums do not depend on its local order), but its locally
  /// re-derived execution interleaving is not authoritative — a production
  /// deployment installs a state snapshot instead of re-deriving history.
  bool rejoined() const { return membership_.rejoined(); }

  /// The node that leads group `g`: it batches, proposes and speaks for
  /// its group. Without a view change this never moves.
  static NodeId LeaderOf(int g) { return NodeId{static_cast<uint16_t>(g), 0}; }

  // ---- Introspection (tests / benches).
  bool IsGroupLeader() const { return id() == LeaderOf(my_group()); }
  uint64_t executed_entries() const { return execution_log_.size(); }
  const std::vector<std::pair<uint16_t, uint64_t>>& execution_log() const {
    return execution_log_;
  }
  uint64_t executed_txns() const { return executed_txns_; }
  const KvStore& store() const { return store_; }
  uint64_t own_clock() const { return own_clock_; }

  /// The entry store's footprint: the entries whose payload this node
  /// holds, and their canonical bytes. A follower releases each payload
  /// when it executes the entry; a leader keeps every one, for catch-up.
  struct Retained {
    uint64_t entries = 0;
    uint64_t payload_bytes = 0;
  };
  Retained retained() const;

  /// Force this node to execute entries even if it is not a group leader
  /// (agreement tests compare all nodes' execution logs).
  void set_always_execute(bool v) { always_execute_ = v; }

 private:
  using Key = std::pair<uint16_t, uint64_t>;

  /// What this node knows of one slot. `entry` is null until the payload
  /// is stored, and again once a follower has executed it; the flags and
  /// the certificate stay for the run.
  struct EntryRecord {
    EntryPtr entry;
    Certificate cert;
    bool payload_available = false;  // Entry and its certificate validated.
    bool globally_committed = false;
    bool executed = false;
    bool lan_forwarded = false;
    bool chunks_shared = false;
    std::unique_ptr<EntryRebuilder> rebuilder;
    SimTime first_chunk_at = -1;
    SimTime created_at = -1;
    SimTime local_committed_at = -1;
    SimTime global_committed_at = -1;
  };

  // ---- Role helpers.
  int my_group() const { return id().group; }
  int num_groups() const { return ctx_->topology->num_groups(); }
  int group_size(int g) const { return ctx_->topology->group_size(g); }
  int group_f(int g) const { return ctx_->topology->max_faulty(g); }
  /// True when `node` leads a group other than this node's.
  bool IsPeerGroupLeader(NodeId node) const {
    return node.group != my_group() && node == LeaderOf(node.group);
  }
  bool single_master() const {
    return shape_.global == GlobalConsensus::kSingleMaster;
  }
  void BroadcastLan(const MessagePtr& msg);

  // ---- Crypto helpers (charge simulated CPU).
  Signature SignPayload(const Bytes& payload);
  [[nodiscard]] bool VerifyNodeSig(NodeId node, const Bytes& payload,
                                   const Signature& sig);
  /// True when group cert.gid is known to have certified `digest`: `cert`
  /// proves it, or an earlier certificate this node checked already did.
  /// So each (gid, digest) pair is checked once per node; a remote leader
  /// meets an entry's certificate in the Raft propose and again in the
  /// rebuild.
  [[nodiscard]] bool VerifyGroupCert(const Certificate& cert,
                                     const Digest& digest);
  /// True when `cert` proves `entry` is e_{key}: the entry's own key is
  /// `key`, and group key.first certified it. Only such an entry is
  /// stored under `key`.
  [[nodiscard]] bool VerifySlot(const Key& key, const Entry& entry,
                                const Certificate& cert);

  // ---- Batching / proposing (leader).
  void TryFormBatch(bool timer_fired);
  /// True when a committed entry has been blocked from execution for more
  /// than two batch intervals (triggers the VTS liveness tick).
  bool HasStaleUnexecuted() const;

  // ---- Local PBFT.
  void OnLocalCommitted(EntryPtr entry, Certificate cert);
  void ValidateEntryAsync(EntryPtr entry, std::function<void(bool)> done);

  // ---- Replication (send side).
  void ReplicateToGroups(const EntryPtr& entry, const Certificate& cert);
  void SendLeaderOneWay(const EntryPtr& entry, const Certificate& cert);
  void SendBijective(const EntryPtr& entry, const Certificate& cert);
  void SendEncoded(const EntryPtr& entry, const Certificate& cert);
  std::shared_ptr<const EncodedEntry> GetEncoded(const EntryPtr& entry,
                                                 const TransferPlan& plan,
                                                 bool tampered);

  // ---- Replication (receive side).
  void OnEntryTransfer(NodeId from, const CertifiedEntry& msg);
  void OnChunkBatch(NodeId from, const ChunkBatch& msg);
  void StorePayload(const Key& key, EntryPtr entry, const Certificate& cert);
  void MarkPayloadAvailable(const Key& key);
  EntryRecord& GetRecord(const Key& key) { return entries_[key]; }
  bool HasPayload(const Key& key) const;

  // ---- Global consensus (group leader).
  void SetupRaft();
  /// The one way in for ordering facts on a leader, from every source:
  /// its Raft or Steward commits, accept and takeover stamps, epoch seals,
  /// peer leaders' relays and catch-up history. Applies `relay`, then
  /// passes it on to the group. While syncing after recovery, live stamps
  /// wait in the sync window; a `replay` relay ends the sync.
  void RelayToGroup(GroupRelay relay);
  /// Records ordering facts and feeds them to the ordering engine.
  void ApplyRelay(const GroupRelay& relay);
  /// For facts this leader originates for every group (its epoch seals,
  /// takeover stamps): sends `relay`, unless empty, to the leader of every
  /// other group not suspected, then relays it to this group.
  void RelayToAll(GroupRelay relay);
  void OnRaftCommitted(uint16_t gid, uint64_t seq);
  void OnAcceptObserved(uint16_t gid, uint64_t seq, uint16_t from_group,
                        uint64_t ts);

  // ---- Steward single-master flow.
  void ForwardToGlobalMaster(const EntryPtr& entry, const Certificate& cert);
  void OnLeaderForward(const CertifiedEntry& msg);
  void MaybeTranslateGlobalCommits();

  // ---- ISS epochs.
  void OnEpochTimer();

  // ---- MassBFT fault handling (the decisions are membership_'s).
  void OnHeartbeatTimer();
  /// Records a membership transition for group `gid` as an event on this
  /// node's track: suspect, takeover (this leader takes the instance),
  /// freeze_closed (detail: the frozen value) and rejoin (heard again).
  void RecordMembership(const char* name, uint16_t gid, double detail = 0);
  /// Records freeze_closed if this leader's freeze round for `gid` closed.
  void RecordFreezeClosed(uint16_t gid);
  void OnCatchUpRequest(NodeId from, const CatchUpRequest& msg);

  // ---- Ordering & execution.
  bool CanExecute(uint16_t gid, uint64_t seq) const;
  void ExecuteEntry(uint16_t gid, uint64_t seq);
  bool IsExecutor() const { return always_execute_ || IsGroupLeader(); }

  // ---- Members.
  ProtocolConfig config_;
  const ProtocolShape shape_;  // ShapeOf(config_.kind).
  ClusterContext* ctx_;
  FaultConfig fault_;

  // Observability (pre-resolved at construction; tel_ is never null).
  obs::Telemetry* tel_;
  uint32_t trace_track_;
  obs::Counter* entries_counter_;
  obs::Counter* txns_exec_counter_;
  obs::Counter* conflict_abort_counter_;
  obs::Counter* logic_abort_counter_;
  obs::Counter* coded_bytes_counter_;

  /// (gid, digest) pairs this node has proven certified, for
  /// VerifyGroupCert: successes only, the oldest forgotten past
  /// kProvenCertCapacity. Per node on purpose: nodes may share one
  /// KeyRegistry (an in-process cluster), and no node may skip a check
  /// that only another node made.
  using ProvenCert = std::pair<uint16_t, Digest>;
  static constexpr size_t kProvenCertCapacity = 1024;
  std::set<ProvenCert> proven_certs_;
  std::deque<ProvenCert> proven_order_;

  std::unique_ptr<PbftEngine> pbft_;
  std::unique_ptr<DigestCertifier> certifier_;
  std::unique_ptr<RaftCoordinator> raft_;

  std::deque<Transaction> pending_txns_;
  uint64_t next_local_seq_ = 0;
  int outstanding_ = 0;
  bool started_ = false;

  std::map<Key, EntryRecord> entries_;

  std::unique_ptr<OrderingEngine> ordering_;
  // Steward: the global-seq -> digest -> origin-key translation tables.
  std::deque<uint64_t> pending_global_commits_;
  std::map<uint64_t, Digest> global_seq_digest_;
  std::map<Digest, Key> digest_index_;
  uint64_t next_global_seq_ = 0;  // Global master only.

  // Execution.
  KvStore store_;
  std::unique_ptr<AriaExecutor> aria_;
  std::vector<std::pair<uint16_t, uint64_t>> execution_log_;
  uint64_t executed_txns_ = 0;
  bool always_execute_ = false;

  // MassBFT VTS state.
  uint64_t own_clock_ = 0;  // = number of own-group entries committed.
  /// Globally committed, not yet executed: the VTS liveness tick and the
  /// takeover stamps read it.
  std::set<Key> unexecuted_committed_;
  /// Liveness, takeover, freeze rounds and catch-up (paper Section V-C).
  GlobalMembership membership_;

  // ISS epoch bookkeeping.
  uint64_t current_epoch_ = 0;
  uint64_t epoch_first_seq_ = 0;
};

}  // namespace massbft

#endif  // MASSBFT_CORE_GROUP_NODE_H_
