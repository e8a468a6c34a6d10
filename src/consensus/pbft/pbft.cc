#include "consensus/pbft/pbft.h"

#include <tuple>
#include <utility>

#include "common/logging.h"

namespace massbft {

namespace {

/// What a pre-prepare or prepare signature covers.
struct VoteStatement {
  uint8_t phase = 0;  // MessageType.
  uint16_t gid = 0;
  uint64_t seq = 0;
  Digest digest{};
  auto Fields() { return std::tie(phase, gid, seq, digest); }
};

}  // namespace

PbftEngine::PbftEngine(uint16_t gid, NodeId self, int group_size,
                       uint16_t leader, Callbacks callbacks)
    : gid_(gid), self_(self), f_((group_size - 1) / 3), leader_(leader),
      cb_(std::move(callbacks)) {
  MASSBFT_CHECK(self.group == gid);
  if (cb_.telemetry != nullptr) {
    obs::MetricsRegistry& registry = cb_.telemetry->registry();
    prepare_hist_ = registry.GetHistogram("pbft/prepare_ms");
    commit_hist_ = registry.GetHistogram("pbft/commit_ms");
  }
}

void PbftEngine::ObservePhase(const char* name, obs::Histogram* hist,
                              SimTime start, SimTime end, uint64_t seq) {
  if (hist == nullptr || start < 0) return;
  hist->Record(SimToSeconds(end - start) * 1e3);
  obs::TraceRecorder& trace = cb_.telemetry->trace();
  if (trace.enabled()) {
    trace.RecordSpan(cb_.trace_track, "pbft", name, start, end,
                     obs::TraceArgs{{{"gid", static_cast<double>(gid_)},
                                     {"seq", static_cast<double>(seq)}}});
  }
}

Bytes PbftEngine::VotePayload(uint64_t seq, const Digest& digest,
                              MessageType phase) const {
  // Commit votes sign the bare entry digest: the 2f+1 commit signatures
  // ARE the certificate that travels with the entry, and remote groups
  // verify it against the digest alone (Certificate::Verify). The digest
  // already binds the entry identity (gid, seq, transactions).
  if (phase == MessageType::kCommit)
    return Bytes(digest.begin(), digest.end());
  return field::ToBytes(
      VoteStatement{static_cast<uint8_t>(phase), gid_, seq, digest});
}

void PbftEngine::Propose(EntryPtr entry) {
  MASSBFT_CHECK(IsLeader());
  const uint64_t seq = entry->seq();
  Instance& inst = GetInstance(seq);
  if (inst.digest_known) return;  // One slot, one entry.
  inst.validated = true;  // The leader built the batch; it has verified
                          // client signatures on ingest.
  Signature sig =
      cb_.sign(VotePayload(seq, entry->digest(), MessageType::kPrePrepare));
  cb_.broadcast(NewMessage(MessageType::kPrePrepare, PrePrepare{entry, sig}));
  AdoptProposal(seq, std::move(entry), sig);
  MaybePrepare(seq);
}

void PbftEngine::AdoptProposal(uint64_t seq, EntryPtr entry,
                               const Signature& pre_prepare_sig) {
  Instance& inst = GetInstance(seq);
  inst.entry = std::move(entry);
  inst.digest = inst.entry->digest();
  inst.digest_known = true;
  if (cb_.now) inst.started_at = cb_.now();
  // The pre-prepare stands in for the leader's prepare vote (classic PBFT
  // counts it toward the 2f+1 prepare quorum).
  inst.prepares.emplace(leader_, pre_prepare_sig);
  // Votes that raced ahead of the pre-prepare now learn which digest
  // counts.
  std::map<std::pair<MessageType, uint16_t>, PbftVote> early;
  early.swap(inst.early_votes);
  for (const auto& [key, vote] : early)
    OnVote(NodeId{gid_, key.second}, key.first, vote);
}

void PbftEngine::OnMessage(NodeId from, const MessagePtr& message) {
  if (from.group != gid_) return;  // Local consensus is intra-group only.
  const auto type = static_cast<MessageType>(message->type());
  switch (type) {
    case MessageType::kPrePrepare:
      OnPrePrepare(from, BodyOf<PrePrepare>(*message));
      break;
    case MessageType::kPrepare:
    case MessageType::kCommit:
      OnVote(from, type, BodyOf<PbftVote>(*message));
      break;
    default:
      MASSBFT_LOG(kWarn) << "pbft: unexpected message type "
                         << message->type();
  }
}

void PbftEngine::OnPrePrepare(NodeId from, const PrePrepare& msg) {
  if (from.index != leader_) return;  // Only the leader proposes.
  // The group certifies its own entries only: a certificate it issued for
  // another group's entry would speak for that group's slot.
  if (msg.entry->gid() != gid_) return;
  const uint64_t seq = msg.entry->seq();
  Instance& inst = GetInstance(seq);
  if (inst.digest_known) return;  // Duplicate (or equivocation; first wins —
                                  // equivocation cannot gather two quorums).
  if (!cb_.verify(from,
                  VotePayload(seq, msg.entry->digest(),
                              MessageType::kPrePrepare),
                  msg.sig))
    return;

  AdoptProposal(seq, msg.entry, msg.sig);

  // Validate the batch (per-transaction signature verification — the
  // dominant CPU cost of local consensus per the paper's Fig 11), then
  // vote prepare.
  cb_.validate_entry(msg.entry, [this, seq](bool valid) {
    if (!valid) return;  // Faulty leader: the instance never prepares.
    Instance& inst = GetInstance(seq);
    inst.validated = true;
    Signature own =
        cb_.sign(VotePayload(seq, inst.digest, MessageType::kPrepare));
    inst.prepares[self_.index] = own;
    cb_.broadcast(
        NewMessage(MessageType::kPrepare, PbftVote{seq, inst.digest, own}));
    MaybePrepare(seq);
    MaybeCommit(seq);
  });
}

void PbftEngine::OnVote(NodeId from, MessageType phase, const PbftVote& vote) {
  Instance& inst = GetInstance(vote.seq);
  if (inst.committed) return;  // Both phases had their quorum.
  if (!inst.digest_known) {
    // Which digest counts is unknown until the pre-prepare: hold the vote,
    // unchecked, until then (the first per signer and phase).
    inst.early_votes.try_emplace({phase, from.index}, vote);
    return;
  }
  // Only votes for the pre-prepared digest count, and the comparison is
  // cheaper than the signature check.
  if (vote.digest != inst.digest) return;
  auto& votes =
      phase == MessageType::kPrepare ? inst.prepares : inst.commits;
  // A check that cannot change the outcome is skipped: the signer has
  // already voted, or the phase has its quorum once this node's own vote,
  // if still pending, is in. A node adds its prepare when its validation
  // completes and its commit when it prepares; one that never validates
  // never prepares, and so needs neither phase.
  const bool own_pending =
      phase == MessageType::kPrepare ? !inst.validated : !inst.prepared;
  if (votes.contains(from.index) ||
      static_cast<int>(votes.size()) + (own_pending ? 1 : 0) >= quorum())
    return;
  if (!cb_.verify(from, VotePayload(vote.seq, vote.digest, phase), vote.sig))
    return;

  votes.emplace(from.index, vote.sig);
  MaybePrepare(vote.seq);
  MaybeCommit(vote.seq);
}

void PbftEngine::MaybePrepare(uint64_t seq) {
  Instance& inst = GetInstance(seq);
  // Prepared: the node has the pre-prepare (digest + validated entry) and
  // 2f+1 prepare votes (its own included).
  if (inst.prepared || !inst.validated ||
      static_cast<int>(inst.prepares.size()) < quorum())
    return;
  inst.prepared = true;
  if (cb_.now) {
    inst.prepared_at = cb_.now();
    ObservePhase("prepare", prepare_hist_, inst.started_at, inst.prepared_at,
                 seq);
  }
  Signature own =
      cb_.sign(VotePayload(seq, inst.digest, MessageType::kCommit));
  inst.commits[self_.index] = own;
  cb_.broadcast(
      NewMessage(MessageType::kCommit, PbftVote{seq, inst.digest, own}));
  MaybeCommit(seq);
}

void PbftEngine::MaybeCommit(uint64_t seq) {
  Instance& inst = GetInstance(seq);
  if (inst.committed || !inst.prepared ||
      static_cast<int>(inst.commits.size()) < quorum())
    return;
  inst.committed = true;
  if (cb_.now)
    ObservePhase("commit", commit_hist_, inst.prepared_at, cb_.now(), seq);

  Certificate cert;
  cert.gid = gid_;
  cert.digest = inst.digest;
  for (const auto& [index, sig] : inst.commits) {
    cert.AddSignature(index, sig);
    if (static_cast<int>(cert.NumSignatures()) == quorum()) break;
  }
  inst.prepares.clear();
  inst.commits.clear();
  cb_.on_committed(std::move(inst.entry), std::move(cert));
}

}  // namespace massbft
