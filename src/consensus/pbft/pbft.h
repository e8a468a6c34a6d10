#ifndef MASSBFT_CONSENSUS_PBFT_PBFT_H_
#define MASSBFT_CONSENSUS_PBFT_PBFT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "common/bytes.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "obs/telemetry.h"
#include "proto/entry.h"
#include "proto/messages.h"
#include "sim/network.h"
#include "sim/time.h"

namespace massbft {

/// Three-phase PBFT (pre-prepare / prepare / commit) over a single group,
/// as the paper's local consensus layer (Section II-A). One engine instance
/// runs per node; instance `seq` decides entry e_{gid,seq} of this group, so
/// a pre-prepare names its instance by the entry it carries. Instances are
/// pipelined — the leader may have many outstanding proposals.
///
/// The engine is transport- and clock-agnostic: the owning node injects
/// send/sign/verify/timer callbacks (which also charge simulated CPU).
/// A committed instance yields the entry plus a Certificate of 2f+1 commit
/// signatures — the artifact that protects the entry during global
/// replication.
///
/// There is no view change: the leader the owner names leads for good, so
/// no message or signed statement carries a view. A crashed group leader
/// halts its group; the other groups then treat the whole group as
/// crashed (heartbeat timeout, Raft-instance takeover, paper §V-C).
class PbftEngine {
 public:
  struct Callbacks {
    /// LAN broadcast to every other node of the group.
    std::function<void(MessagePtr)> broadcast;
    /// Sign `data` with this node's key, charging CPU.
    std::function<Signature(const Bytes&)> sign;
    /// Verify a group member's signature, charging CPU.
    std::function<bool(NodeId, const Bytes&, const Signature&)> verify;
    /// Validate a proposed entry's transactions (charges per-transaction
    /// signature verification — the paper's dominant local-consensus cost)
    /// and invoke `done(valid)` when the simulated work completes.
    std::function<void(EntryPtr, std::function<void(bool)>)> validate_entry;
    /// Fired exactly once per committed entry, on every correct node.
    std::function<void(EntryPtr, Certificate)> on_committed;
    /// Current sim time (optional; enables the per-instance phase
    /// observability below).
    std::function<SimTime()> now;
    /// Observability sink (optional). With `now` set, each instance
    /// reports prepare/commit phase durations into the registry
    /// ("pbft/prepare_ms", "pbft/commit_ms") and — when tracing — emits
    /// spans on `trace_track`.
    obs::Telemetry* telemetry = nullptr;
    uint32_t trace_track = 0;
  };

  /// `leader` is the index of the group member whose pre-prepares count.
  PbftEngine(uint16_t gid, NodeId self, int group_size, uint16_t leader,
             Callbacks callbacks);

  bool IsLeader() const { return self_.index == leader_; }
  int quorum() const { return 2 * f_ + 1; }
  int f() const { return f_; }

  /// Leader: proposes `entry` in instance entry->seq(). A second entry for
  /// a slot that already holds one is not proposed.
  void Propose(EntryPtr entry);

  /// Delivery entry point for kPrePrepare/kPrepare/kCommit messages.
  void OnMessage(NodeId from, const MessagePtr& message);

 private:
  /// One slot. Once committed, it keeps only its digest and flags: the
  /// entry went to on_committed, and no later vote is checked.
  struct Instance {
    EntryPtr entry;
    Digest digest{};
    bool digest_known = false;
    bool validated = false;
    bool prepared = false;
    bool committed = false;
    // Verified votes for `digest`, keyed by node index.
    std::map<uint16_t, Signature> prepares;
    std::map<uint16_t, Signature> commits;
    // Unverified votes that arrived before the pre-prepare, keyed by
    // (phase, signer index); replayed by AdoptProposal.
    std::map<std::pair<MessageType, uint16_t>, PbftVote> early_votes;
    // Observability timestamps (set only when Callbacks::now is wired).
    SimTime started_at = -1;
    SimTime prepared_at = -1;
  };

  Bytes VotePayload(uint64_t seq, const Digest& digest,
                    MessageType phase) const;
  Instance& GetInstance(uint64_t seq) { return instances_[seq]; }

  /// Fixes instance `seq` to the leader's proposal: its entry and digest,
  /// the pre-prepare signature as the leader's prepare vote, and the votes
  /// that arrived before it, now checked against the digest.
  void AdoptProposal(uint64_t seq, EntryPtr entry,
                     const Signature& pre_prepare_sig);
  void OnPrePrepare(NodeId from, const PrePrepare& msg);
  void OnVote(NodeId from, MessageType phase, const PbftVote& vote);
  void MaybePrepare(uint64_t seq);
  void MaybeCommit(uint64_t seq);
  /// Records one PBFT sub-phase into the registry histogram and (when
  /// tracing) the trace. No-op unless observability is wired.
  void ObservePhase(const char* name, obs::Histogram* hist, SimTime start,
                    SimTime end, uint64_t seq);

  uint16_t gid_;
  NodeId self_;
  int f_;
  uint16_t leader_;
  Callbacks cb_;

  std::map<uint64_t, Instance> instances_;

  // Pre-resolved observability handles (null when not wired).
  obs::Histogram* prepare_hist_ = nullptr;
  obs::Histogram* commit_hist_ = nullptr;
};

}  // namespace massbft

#endif  // MASSBFT_CONSENSUS_PBFT_PBFT_H_
