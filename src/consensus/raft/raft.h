#ifndef MASSBFT_CONSENSUS_RAFT_RAFT_H_
#define MASSBFT_CONSENSUS_RAFT_RAFT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "crypto/sha256.h"
#include "obs/telemetry.h"
#include "proto/entry.h"
#include "proto/messages.h"
#include "sim/time.h"

namespace massbft {

/// Group-level global Raft control plane (paper Section II-A "Baseline" and
/// Section V-A): every group is a logical Raft replica; group G_i leads the
/// i-th instance; entries flow propose -> accept -> commit. The entry
/// *payload* travels separately via the protocol's replication strategy
/// (one-way leader copies, bijective, or encoded bijective); this class
/// only drives the small control messages and quorum logic.
///
/// One RaftCoordinator runs on each group's *leader node*. Followers learn
/// outcomes via kGroupRelay messages over LAN (handled by the owning node).
///
/// Accept receipts are protected by skip-prepare local certification
/// (DigestCertifier) before leaving the group, so Byzantine leaders cannot
/// fabricate them. Accepts also carry the accepting group's clock value
/// `ts` — MassBFT's overlapped vector-timestamp assignment (Fig 7b);
/// protocols without VTS pass ts = 0.
class RaftCoordinator {
 public:
  struct Callbacks {
    /// Sends a control message to the leader node of `group` over WAN.
    std::function<void(int group, MessagePtr)> send_to_group;
    /// Starts local skip-prepare certification of `decision`; `done(cert)`
    /// fires on this (leader) node when 2f+1 shares are aggregated.
    std::function<void(const DecisionId&, std::function<void(Certificate)>)>
        certify;
    /// Verifies a remote group's certificate over `digest` (charges CPU).
    std::function<bool(const Certificate&, const Digest&)> verify_group_cert;
    /// True when this node holds the validated payload of e_{gid,seq}.
    std::function<bool(uint16_t gid, uint64_t seq)> has_entry;
    /// Clock value this group stamps on e_{gid,seq} when accepting
    /// (MassBFT VTS; return 0 when unused).
    std::function<uint64_t(uint16_t gid, uint64_t seq)> assign_ts;
    /// Fired in per-instance sequence order once e_{gid,seq} is globally
    /// committed (on the leader node; the owner relays to the group).
    std::function<void(uint16_t gid, uint64_t seq)> on_committed;
    /// Fired for every accept this leader observes (own or broadcast) —
    /// MassBFT harvests VTS elements from these.
    std::function<void(uint16_t target_gid, uint64_t target_seq,
                       uint16_t from_group, uint64_t ts)>
        on_accept_observed;
    /// Current sim time (optional; enables the observability below).
    std::function<SimTime()> now;
    /// Observability sink (optional). With `now` set, proposer-side
    /// entries report propose -> global-commit durations into
    /// "raft/global_commit_ms" and — when tracing — spans on
    /// `trace_track`.
    obs::Telemetry* telemetry = nullptr;
    uint32_t trace_track = 0;
  };

  RaftCoordinator(int num_groups, int my_group, Callbacks callbacks);

  /// Majority of groups, counting the proposer itself: floor(n_g/2)+1.
  int GroupQuorum() const { return num_groups_ / 2 + 1; }

  /// Proposer (leader of my_group): starts consensus on a locally-certified
  /// entry, whose certificate's digest is the one proposed. The caller has
  /// already launched payload replication.
  void Propose(uint16_t gid, uint64_t seq, const Certificate& cert);

  /// Follower-group leader: a propose control message arrived.
  void OnProposeControl(const RaftPropose& msg);

  /// The payload of e_{gid,seq} became available on this node (rebuilt or
  /// received); accept certification may proceed.
  void NotifyEntryAvailable(uint16_t gid, uint64_t seq);

  /// An accept receipt arrived (addressed to us as proposer, or broadcast).
  /// It counts for the group whose certificate it carries.
  void OnAccept(const RaftAccept& msg);

  /// A commit announcement arrived from a proposer group.
  void OnCommit(const RaftCommit& msg);

  /// Externally-learned commit (catch-up replay after recovery): marks the
  /// entry committed and advances the contiguous-delivery cursor without
  /// requiring the (long gone) commit message.
  void NoteCommitted(uint16_t gid, uint64_t seq) { MarkCommitted(gid, seq); }

  /// Crash takeover (paper Section V-C): this group's leader becomes the
  /// new leader of crashed group `gid`'s Raft instance. In-flight
  /// proposals that already gathered a quorum of accepts are driven to
  /// commit so execution can resume; the VTS element of `gid` is frozen by
  /// the owner node.
  void TakeOverInstance(uint16_t gid);
  bool HasTakenOver(uint16_t gid) const { return taken_over_.contains(gid); }
  /// Returns the instance to its original (recovered) group.
  void ReleaseInstance(uint16_t gid) { taken_over_.erase(gid); }

  /// Highest contiguous committed sequence per instance (-1 if none).
  int64_t CommittedThrough(uint16_t gid) const;

 private:
  struct InstanceEntry {
    bool proposed = false;            // Propose control seen.
    bool accept_started = false;      // Accept certification launched.
    bool committed = false;
    std::set<uint16_t> accept_groups;  // Proposer side: who accepted.
    bool commit_started = false;       // Proposer side.
    /// Our accept receipt, set once it is sent and cached so a re-propose
    /// after the proposer recovers from a crash can be answered again.
    MessagePtr cached_accept;
    SimTime proposed_at = -1;  // Proposer side, for observability.
  };
  struct Instance {
    std::map<uint64_t, InstanceEntry> log;
    int64_t committed_through = -1;  // Contiguously delivered.
  };

  void MaybeStartAccept(uint16_t gid, uint64_t seq);
  void MaybeStartCommit(uint16_t gid, uint64_t seq);
  void MaybeDeliverCommits(uint16_t gid);
  void MarkCommitted(uint16_t gid, uint64_t seq);

  int num_groups_;
  int my_group_;
  Callbacks cb_;
  std::map<uint16_t, Instance> instances_;
  std::set<uint16_t> taken_over_;
  // Pre-resolved observability handles (null when not wired).
  obs::Histogram* commit_hist_ = nullptr;
  obs::Counter* commit_counter_ = nullptr;
};

}  // namespace massbft

#endif  // MASSBFT_CONSENSUS_RAFT_RAFT_H_
