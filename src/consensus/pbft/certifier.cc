#include "consensus/pbft/certifier.h"

#include <iterator>
#include <utility>

#include "common/logging.h"

namespace massbft {

DigestCertifier::DigestCertifier(uint16_t gid, NodeId self, int group_size,
                                 uint16_t leader, Callbacks callbacks)
    : gid_(gid), self_(self), f_((group_size - 1) / 3), leader_(leader),
      cb_(std::move(callbacks)) {
  MASSBFT_CHECK(self.group == gid);
}

Digest DigestCertifier::DecisionDigest(const DecisionId& decision) {
  return Sha256::Hash(field::ToBytes(decision));
}

void DigestCertifier::Start(const DecisionId& decision) {
  Pending& p = pending_[decision];
  if (p.votes.contains(self_.index)) return;  // Already started.
  p.decision = decision;

  Digest digest = DecisionDigest(decision);
  Bytes payload(digest.begin(), digest.end());
  Signature own = cb_.sign(payload);
  p.votes[self_.index] = own;
  p.voted = true;
  cb_.broadcast(
      NewMessage(MessageType::kCertifyRequest, SignedDecision{decision, own}));

  // Degenerate single-node group: the leader's own share is the quorum.
  if (!p.certified && static_cast<int>(p.votes.size()) >= quorum()) {
    p.certified = true;
    Certificate cert;
    cert.gid = gid_;
    cert.digest = digest;
    cert.AddSignature(self_.index, own);
    cb_.on_certified(p.decision, std::move(cert));
  }
}

void DigestCertifier::OnMessage(NodeId from, const MessagePtr& message) {
  if (from.group != gid_) return;
  switch (static_cast<MessageType>(message->type())) {
    case MessageType::kCertifyRequest: {
      if (from.index != leader_) return;  // Only the leader certifies.
      const auto& req = BodyOf<SignedDecision>(*message);
      Digest digest = DecisionDigest(req.decision);
      Bytes payload(digest.begin(), digest.end());
      if (!cb_.verify(from, payload, req.sig)) return;
      Pending& p = pending_[req.decision];
      p.decision = req.decision;
      if (!TryVote(p)) deferred_.insert(req.decision);
      break;
    }
    case MessageType::kCertifyVote: {
      const auto& vote = BodyOf<SignedDecision>(*message);
      auto it = pending_.find(vote.decision);
      if (it == pending_.end()) return;  // We never started this decision.
      Pending& p = it->second;
      if (p.certified) return;
      Digest digest = DecisionDigest(vote.decision);
      Bytes payload(digest.begin(), digest.end());
      if (!cb_.verify(from, payload, vote.sig)) return;
      p.votes.emplace(from.index, vote.sig);
      if (static_cast<int>(p.votes.size()) >= quorum()) {
        p.certified = true;
        Certificate cert;
        cert.gid = gid_;
        cert.digest = digest;
        for (const auto& [index, sig] : p.votes) {
          cert.AddSignature(index, sig);
          if (static_cast<int>(cert.NumSignatures()) == quorum()) break;
        }
        cb_.on_certified(p.decision, std::move(cert));
      }
      break;
    }
    default:
      MASSBFT_LOG(kWarn) << "certifier: unexpected message type "
                         << message->type();
  }
}

bool DigestCertifier::TryVote(Pending& p) {
  if (p.voted) return true;
  if (!cb_.can_sign(p.decision)) return false;  // Until state advances.
  p.voted = true;
  Digest digest = DecisionDigest(p.decision);
  Bytes payload(digest.begin(), digest.end());
  Signature sig = cb_.sign(payload);
  cb_.send_to(NodeId{gid_, leader_},
              NewMessage(MessageType::kCertifyVote,
                         SignedDecision{p.decision, sig}));
  return true;
}

void DigestCertifier::RecheckPending() {
  for (auto it = deferred_.begin(); it != deferred_.end();)
    it = TryVote(pending_.at(*it)) ? deferred_.erase(it) : std::next(it);
}

}  // namespace massbft
