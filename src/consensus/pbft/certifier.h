#ifndef MASSBFT_CONSENSUS_PBFT_CERTIFIER_H_
#define MASSBFT_CONSENSUS_PBFT_CERTIFIER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "proto/entry.h"
#include "proto/messages.h"
#include "sim/network.h"

namespace massbft {

/// Skip-prepare local consensus on group decisions (paper Section II-A,
/// after Ziziphus): the group leader broadcasts a decision; followers sign
/// it once their local admission predicate holds; the leader aggregates
/// 2f+1 signatures into a Certificate. Used for the Raft `accept` receipt
/// (a follower only signs once it has the actual entry — this is what makes
/// Lemma V.1's atomicity argument go through) and for the Raft `commit`
/// decision. Followers answer the group leader only: a certification any
/// member could start would let one Byzantine follower collect a commit
/// certificate for any decision.
class DigestCertifier {
 public:
  /// Decision kinds (DecisionId::kind).
  enum Kind : uint8_t {
    kAccept = 1,
    kCommitDecision = 2,
  };

  struct Callbacks {
    std::function<void(MessagePtr)> broadcast;
    std::function<void(NodeId, MessagePtr)> send_to;
    std::function<Signature(const Bytes&)> sign;
    std::function<bool(NodeId, const Bytes&, const Signature&)> verify;
    /// Follower admission predicate. Returning false defers the vote; the
    /// owner must call RecheckPending() when its state advances (e.g. an
    /// entry finishes rebuilding).
    std::function<bool(const DecisionId&)> can_sign;
  };

  /// `leader` is the index of the group member whose requests followers
  /// vote on.
  DigestCertifier(uint16_t gid, NodeId self, int group_size, uint16_t leader,
                  Callbacks callbacks);

  /// The digest all parties sign for a decision, the SHA-256 of its
  /// encoding (also what remote groups verify a resulting Certificate
  /// against).
  static Digest DecisionDigest(const DecisionId& decision);

  /// Leader: starts certification of `decision`; `done` gets the
  /// aggregated certificate once 2f+1 shares are in. Starting a decision
  /// already in progress changes nothing.
  void Start(const DecisionId& decision,
             std::function<void(Certificate)> done);

  /// Dispatch for kCertifyRequest / kCertifyVote.
  void OnMessage(NodeId from, const MessagePtr& message);

  /// Re-evaluates deferred follower votes (call when local state
  /// advances). Asks can_sign only about decisions still waiting to vote.
  void RecheckPending();

  int quorum() const { return 2 * f_ + 1; }

 private:
  /// Leader side: a started decision's shares, keyed by signer index,
  /// and its continuation.
  struct Pending {
    std::map<uint16_t, Signature> shares;
    std::function<void(Certificate)> done;
  };

  /// Votes on `decision` unless can_sign defers it; returns whether it
  /// voted.
  bool TryVote(const DecisionId& decision);
  /// Leader: once `it` holds a quorum of shares, erases it and completes
  /// the decision with their certificate over `digest`.
  void MaybeCertify(std::map<DecisionId, Pending>::iterator it,
                    const Digest& digest);

  uint16_t gid_;
  NodeId self_;
  int f_;
  uint16_t leader_;
  Callbacks cb_;
  /// Decisions this leader started and has not certified yet. A decided
  /// one keeps nothing: a late vote finds no entry and goes unchecked.
  std::map<DecisionId, Pending> pending_;
  /// Follower side: requests whose vote can_sign deferred. A follower
  /// keeps nothing once it has voted, so a repeated request gets a fresh
  /// vote.
  std::set<DecisionId> deferred_;
};

}  // namespace massbft

#endif  // MASSBFT_CONSENSUS_PBFT_CERTIFIER_H_
