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

void DigestCertifier::Start(const DecisionId& decision,
                            std::function<void(Certificate)> done) {
  auto [it, started] = pending_.try_emplace(decision);
  if (!started) return;  // Already started.
  it->second.done = std::move(done);

  Digest digest = DecisionDigest(decision);
  Bytes payload(digest.begin(), digest.end());
  Signature own = cb_.sign(payload);
  it->second.shares.emplace(self_.index, own);
  cb_.broadcast(
      NewMessage(MessageType::kCertifyRequest, SignedDecision{decision, own}));
  // Degenerate single-node group: the leader's own share is the quorum.
  MaybeCertify(it, digest);
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
      if (TryVote(req.decision)) {
        deferred_.erase(req.decision);
      } else {
        deferred_.insert(req.decision);
      }
      break;
    }
    case MessageType::kCertifyVote: {
      const auto& vote = BodyOf<SignedDecision>(*message);
      auto it = pending_.find(vote.decision);
      // Never started here, or certified already.
      if (it == pending_.end()) return;
      Digest digest = DecisionDigest(vote.decision);
      Bytes payload(digest.begin(), digest.end());
      if (!cb_.verify(from, payload, vote.sig)) return;
      it->second.shares.emplace(from.index, vote.sig);
      MaybeCertify(it, digest);
      break;
    }
    default:
      MASSBFT_LOG(kWarn) << "certifier: unexpected message type "
                         << message->type();
  }
}

void DigestCertifier::MaybeCertify(std::map<DecisionId, Pending>::iterator it,
                                   const Digest& digest) {
  if (static_cast<int>(it->second.shares.size()) < quorum()) return;
  Certificate cert;
  cert.gid = gid_;
  cert.digest = digest;
  for (const auto& [index, sig] : it->second.shares) {
    cert.AddSignature(index, sig);
    if (static_cast<int>(cert.NumSignatures()) == quorum()) break;
  }
  auto done = std::move(it->second.done);
  pending_.erase(it);
  done(std::move(cert));
}

bool DigestCertifier::TryVote(const DecisionId& decision) {
  if (!cb_.can_sign(decision)) return false;  // Until state advances.
  Digest digest = DecisionDigest(decision);
  Bytes payload(digest.begin(), digest.end());
  Signature sig = cb_.sign(payload);
  cb_.send_to(NodeId{gid_, leader_},
              NewMessage(MessageType::kCertifyVote,
                         SignedDecision{decision, sig}));
  return true;
}

void DigestCertifier::RecheckPending() {
  for (auto it = deferred_.begin(); it != deferred_.end();)
    it = TryVote(*it) ? deferred_.erase(it) : std::next(it);
}

}  // namespace massbft
