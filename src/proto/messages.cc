#include "proto/messages.h"

#include <utility>

namespace massbft {

// Per-message canonical body layouts (DESIGN.md §12). Every encoder here
// has exactly one decoder inverse in DecodeMessageBody; ByteSize() runs
// these encoders, so simulated byte accounting and the real transport agree
// by construction.

namespace {

/// Decode-side sanity bound on repeated-element counts: no legitimate
/// message carries more elements than bytes remaining in its body.
Status CheckCount(uint64_t count, const BinaryReader& r) {
  if (count > r.Remaining())
    return Status::Corruption("implausible element count");
  return Status::OK();
}

void PutSignature(BinaryWriter* w, const Signature& sig) {
  w->PutRaw(sig.data(), sig.size());
}

Status GetSignature(BinaryReader* r, Signature* sig) {
  return r->GetRaw(sig->data(), sig->size());
}

void PutDigest(BinaryWriter* w, const Digest& d) {
  w->PutRaw(d.data(), d.size());
}

Status GetDigest(BinaryReader* r, Digest* d) {
  return r->GetRaw(d->data(), d->size());
}

/// Entries travel as a length-prefixed blob of their canonical encoding.
void PutEntry(BinaryWriter* w, const EntryPtr& entry) {
  w->PutBytes(entry->Encoded());
}

Result<EntryPtr> GetEntry(BinaryReader* r) {
  Bytes blob;
  MASSBFT_RETURN_IF_ERROR(r->GetBytes(&blob));
  return Entry::Decode(blob);
}

}  // namespace

// ---------------------------------------------------------------- Structs

void DecisionId::EncodeTo(BinaryWriter* w) const {
  w->PutU8(kind);
  w->PutU16(voter_gid);
  w->PutU16(target_gid);
  w->PutU64(target_seq);
  w->PutU64(ts);
}

Result<DecisionId> DecisionId::DecodeFrom(BinaryReader* r) {
  DecisionId d;
  MASSBFT_RETURN_IF_ERROR(r->GetU8(&d.kind));
  MASSBFT_RETURN_IF_ERROR(r->GetU16(&d.voter_gid));
  MASSBFT_RETURN_IF_ERROR(r->GetU16(&d.target_gid));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&d.target_seq));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&d.ts));
  return d;
}

void Chunk::EncodeTo(BinaryWriter* w) const {
  w->PutU32(chunk_id);
  w->PutBytes(data);
  proof.EncodeTo(w);
}

Result<Chunk> Chunk::DecodeFrom(BinaryReader* r) {
  Chunk c;
  MASSBFT_RETURN_IF_ERROR(r->GetU32(&c.chunk_id));
  MASSBFT_RETURN_IF_ERROR(r->GetBytes(&c.data));
  MASSBFT_ASSIGN_OR_RETURN(c.proof, MerkleProof::DecodeFrom(r));
  return c;
}

void TimestampElement::EncodeTo(BinaryWriter* w) const {
  w->PutU16(assigner_gid);
  w->PutU16(target_gid);
  w->PutU64(target_seq);
  w->PutU64(ts);
}

Result<TimestampElement> TimestampElement::DecodeFrom(BinaryReader* r) {
  TimestampElement e;
  MASSBFT_RETURN_IF_ERROR(r->GetU16(&e.assigner_gid));
  MASSBFT_RETURN_IF_ERROR(r->GetU16(&e.target_gid));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&e.target_seq));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&e.ts));
  return e;
}

void RelayEvent::EncodeTo(BinaryWriter* w) const {
  w->PutU8(type);
  w->PutU16(gid);
  w->PutU64(seq);
  w->PutU16(assigner);
  w->PutU64(ts);
}

Result<RelayEvent> RelayEvent::DecodeFrom(BinaryReader* r) {
  RelayEvent e;
  MASSBFT_RETURN_IF_ERROR(r->GetU8(&e.type));
  MASSBFT_RETURN_IF_ERROR(r->GetU16(&e.gid));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&e.seq));
  MASSBFT_RETURN_IF_ERROR(r->GetU16(&e.assigner));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&e.ts));
  return e;
}

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kPrePrepare:
      return "pre_prepare";
    case MessageType::kPrepare:
      return "prepare";
    case MessageType::kCommit:
      return "commit";
    case MessageType::kCertifyRequest:
      return "certify_request";
    case MessageType::kCertifyVote:
      return "certify_vote";
    case MessageType::kEntryTransfer:
      return "entry_transfer";
    case MessageType::kChunkBatch:
      return "chunk_batch";
    case MessageType::kRaftPropose:
      return "raft_propose";
    case MessageType::kRaftAccept:
      return "raft_accept";
    case MessageType::kRaftCommit:
      return "raft_commit";
    case MessageType::kTimestampAssign:
      return "timestamp_assign";
    case MessageType::kGroupHeartbeat:
      return "group_heartbeat";
    case MessageType::kGroupRelay:
      return "group_relay";
    case MessageType::kEpochMarker:
      return "epoch_marker";
    case MessageType::kLeaderForward:
      return "leader_forward";
    case MessageType::kCatchUpRequest:
      return "catch_up_request";
    case MessageType::kFreezeQuery:
      return "freeze_query";
    case MessageType::kFreezeReport:
      return "freeze_report";
    case MessageType::kCatchUpDone:
      return "catch_up_done";
  }
  return "unknown";
}

// --------------------------------------------------------------- Encoders

void PrePrepareMsg::EncodeBodyTo(BinaryWriter* w) const {
  w->PutU64(view_);
  w->PutU64(seq_);
  PutEntry(w, entry_);
  PutSignature(w, sig_);
}

void PbftVoteMsg::EncodeBodyTo(BinaryWriter* w) const {
  w->PutU64(view_);
  w->PutU64(seq_);
  PutDigest(w, digest_);
  PutSignature(w, sig_);
}

void CertifyRequestMsg::EncodeBodyTo(BinaryWriter* w) const {
  decision_.EncodeTo(w);
  PutSignature(w, sig_);
}

void CertifyVoteMsg::EncodeBodyTo(BinaryWriter* w) const {
  decision_.EncodeTo(w);
  PutSignature(w, sig_);
}

void EntryTransferMsg::EncodeBodyTo(BinaryWriter* w) const {
  PutEntry(w, entry_);
  cert_.EncodeTo(w);
}

void ChunkBatchMsg::EncodeBodyTo(BinaryWriter* w) const {
  w->PutU16(gid_);
  w->PutU64(seq_);
  PutDigest(w, merkle_root_);
  w->PutU64(entry_size_);
  cert_.EncodeTo(w);
  w->PutVarint(chunks_.size());
  for (const Chunk& c : chunks_) c.EncodeTo(w);
}

void RaftProposeMsg::EncodeBodyTo(BinaryWriter* w) const {
  w->PutU16(gid_);
  w->PutU64(seq_);
  PutDigest(w, digest_);
  cert_.EncodeTo(w);
  w->PutU16(origin_gid_);
  w->PutU64(origin_seq_);
  w->PutVarint(piggyback_.size());
  for (const TimestampElement& e : piggyback_) e.EncodeTo(w);
}

void RaftAcceptMsg::EncodeBodyTo(BinaryWriter* w) const {
  w->PutU16(gid_);
  w->PutU64(seq_);
  w->PutU16(from_group_);
  w->PutU64(ts_);
  cert_.EncodeTo(w);
}

void RaftCommitMsg::EncodeBodyTo(BinaryWriter* w) const {
  w->PutU16(gid_);
  w->PutU64(seq_);
  cert_.EncodeTo(w);
}

void TimestampAssignMsg::EncodeBodyTo(BinaryWriter* w) const {
  w->PutU8(replay_ ? 1 : 0);
  w->PutVarint(elements_.size());
  for (const TimestampElement& e : elements_) e.EncodeTo(w);
}

void CatchUpDoneMsg::EncodeBodyTo(BinaryWriter*) const {}

void GroupRelayMsg::EncodeBodyTo(BinaryWriter* w) const {
  w->PutU8(replay_ ? 1 : 0);
  w->PutVarint(events_.size());
  for (const RelayEvent& e : events_) e.EncodeTo(w);
}

void GroupHeartbeatMsg::EncodeBodyTo(BinaryWriter* w) const {
  w->PutU16(gid_);
  w->PutU64(last_seq_);
}

void EpochMarkerMsg::EncodeBodyTo(BinaryWriter* w) const {
  w->PutU16(gid_);
  w->PutU64(epoch_);
  w->PutU64(count_);
}

void FreezeMsg::EncodeBodyTo(BinaryWriter* w) const {
  w->PutU16(dead_gid_);
  w->PutU64(max_seen_);
}

void CatchUpRequestMsg::EncodeBodyTo(BinaryWriter* w) const {
  w->PutVarint(executed_next_.size());
  for (const auto& [gid, next] : executed_next_) {
    w->PutU16(gid);
    w->PutU64(next);
  }
}

void LeaderForwardMsg::EncodeBodyTo(BinaryWriter* w) const {
  PutEntry(w, entry_);
  cert_.EncodeTo(w);
}

// ---------------------------------------------------------------- Decoder

namespace {

using MsgResult = Result<std::unique_ptr<ProtocolMessage>>;

MsgResult DecodePrePrepare(BinaryReader* r) {
  uint64_t view = 0;
  uint64_t seq = 0;
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&view));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&seq));
  MASSBFT_ASSIGN_OR_RETURN(EntryPtr entry, GetEntry(r));
  Signature sig;
  MASSBFT_RETURN_IF_ERROR(GetSignature(r, &sig));
  return std::unique_ptr<ProtocolMessage>(
      std::make_unique<PrePrepareMsg>(view, seq, std::move(entry), sig));
}

MsgResult DecodePbftVote(MessageType type, BinaryReader* r) {
  uint64_t view = 0;
  uint64_t seq = 0;
  Digest digest{};
  Signature sig;
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&view));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&seq));
  MASSBFT_RETURN_IF_ERROR(GetDigest(r, &digest));
  MASSBFT_RETURN_IF_ERROR(GetSignature(r, &sig));
  return std::unique_ptr<ProtocolMessage>(
      std::make_unique<PbftVoteMsg>(type, view, seq, digest, sig));
}

MsgResult DecodeCertify(MessageType type, BinaryReader* r) {
  MASSBFT_ASSIGN_OR_RETURN(DecisionId decision, DecisionId::DecodeFrom(r));
  Signature sig;
  MASSBFT_RETURN_IF_ERROR(GetSignature(r, &sig));
  if (type == MessageType::kCertifyRequest)
    return std::unique_ptr<ProtocolMessage>(
        std::make_unique<CertifyRequestMsg>(decision, sig));
  return std::unique_ptr<ProtocolMessage>(
      std::make_unique<CertifyVoteMsg>(decision, sig));
}

MsgResult DecodeEntryTransfer(BinaryReader* r) {
  MASSBFT_ASSIGN_OR_RETURN(EntryPtr entry, GetEntry(r));
  MASSBFT_ASSIGN_OR_RETURN(Certificate cert, Certificate::DecodeFrom(r));
  return std::unique_ptr<ProtocolMessage>(
      std::make_unique<EntryTransferMsg>(std::move(entry), std::move(cert)));
}

MsgResult DecodeChunkBatch(BinaryReader* r) {
  uint16_t gid = 0;
  uint64_t seq = 0;
  Digest root{};
  uint64_t entry_size = 0;
  MASSBFT_RETURN_IF_ERROR(r->GetU16(&gid));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&seq));
  MASSBFT_RETURN_IF_ERROR(GetDigest(r, &root));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&entry_size));
  MASSBFT_ASSIGN_OR_RETURN(Certificate cert, Certificate::DecodeFrom(r));
  uint64_t count = 0;
  MASSBFT_RETURN_IF_ERROR(r->GetVarint(&count));
  MASSBFT_RETURN_IF_ERROR(CheckCount(count, *r));
  std::vector<Chunk> chunks;
  chunks.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    MASSBFT_ASSIGN_OR_RETURN(Chunk c, Chunk::DecodeFrom(r));
    chunks.push_back(std::move(c));
  }
  return std::unique_ptr<ProtocolMessage>(std::make_unique<ChunkBatchMsg>(
      gid, seq, root, std::move(cert), std::move(chunks), entry_size));
}

MsgResult DecodeRaftPropose(BinaryReader* r) {
  uint16_t gid = 0;
  uint64_t seq = 0;
  Digest digest{};
  uint16_t origin_gid = 0;
  uint64_t origin_seq = 0;
  MASSBFT_RETURN_IF_ERROR(r->GetU16(&gid));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&seq));
  MASSBFT_RETURN_IF_ERROR(GetDigest(r, &digest));
  MASSBFT_ASSIGN_OR_RETURN(Certificate cert, Certificate::DecodeFrom(r));
  MASSBFT_RETURN_IF_ERROR(r->GetU16(&origin_gid));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&origin_seq));
  uint64_t count = 0;
  MASSBFT_RETURN_IF_ERROR(r->GetVarint(&count));
  MASSBFT_RETURN_IF_ERROR(CheckCount(count, *r));
  std::vector<TimestampElement> piggyback;
  piggyback.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    MASSBFT_ASSIGN_OR_RETURN(TimestampElement e,
                             TimestampElement::DecodeFrom(r));
    piggyback.push_back(e);
  }
  return std::unique_ptr<ProtocolMessage>(std::make_unique<RaftProposeMsg>(
      gid, seq, digest, std::move(cert), std::move(piggyback), origin_gid,
      origin_seq));
}

MsgResult DecodeRaftAccept(BinaryReader* r) {
  uint16_t gid = 0;
  uint64_t seq = 0;
  uint16_t from_group = 0;
  uint64_t ts = 0;
  MASSBFT_RETURN_IF_ERROR(r->GetU16(&gid));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&seq));
  MASSBFT_RETURN_IF_ERROR(r->GetU16(&from_group));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&ts));
  MASSBFT_ASSIGN_OR_RETURN(Certificate cert, Certificate::DecodeFrom(r));
  return std::unique_ptr<ProtocolMessage>(std::make_unique<RaftAcceptMsg>(
      gid, seq, from_group, std::move(cert), ts));
}

MsgResult DecodeRaftCommit(BinaryReader* r) {
  uint16_t gid = 0;
  uint64_t seq = 0;
  MASSBFT_RETURN_IF_ERROR(r->GetU16(&gid));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&seq));
  MASSBFT_ASSIGN_OR_RETURN(Certificate cert, Certificate::DecodeFrom(r));
  return std::unique_ptr<ProtocolMessage>(
      std::make_unique<RaftCommitMsg>(gid, seq, std::move(cert)));
}

MsgResult DecodeTimestampAssign(BinaryReader* r) {
  uint8_t replay = 0;
  uint64_t count = 0;
  MASSBFT_RETURN_IF_ERROR(r->GetU8(&replay));
  MASSBFT_RETURN_IF_ERROR(r->GetVarint(&count));
  MASSBFT_RETURN_IF_ERROR(CheckCount(count, *r));
  std::vector<TimestampElement> elements;
  elements.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    MASSBFT_ASSIGN_OR_RETURN(TimestampElement e,
                             TimestampElement::DecodeFrom(r));
    elements.push_back(e);
  }
  return std::unique_ptr<ProtocolMessage>(std::make_unique<TimestampAssignMsg>(
      std::move(elements), replay != 0));
}

MsgResult DecodeGroupRelay(BinaryReader* r) {
  uint8_t replay = 0;
  uint64_t count = 0;
  MASSBFT_RETURN_IF_ERROR(r->GetU8(&replay));
  MASSBFT_RETURN_IF_ERROR(r->GetVarint(&count));
  MASSBFT_RETURN_IF_ERROR(CheckCount(count, *r));
  std::vector<RelayEvent> events;
  events.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    MASSBFT_ASSIGN_OR_RETURN(RelayEvent e, RelayEvent::DecodeFrom(r));
    events.push_back(e);
  }
  return std::unique_ptr<ProtocolMessage>(
      std::make_unique<GroupRelayMsg>(std::move(events), replay != 0));
}

MsgResult DecodeGroupHeartbeat(BinaryReader* r) {
  uint16_t gid = 0;
  uint64_t last_seq = 0;
  MASSBFT_RETURN_IF_ERROR(r->GetU16(&gid));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&last_seq));
  return std::unique_ptr<ProtocolMessage>(
      std::make_unique<GroupHeartbeatMsg>(gid, last_seq));
}

MsgResult DecodeEpochMarker(BinaryReader* r) {
  uint16_t gid = 0;
  uint64_t epoch = 0;
  uint64_t count = 0;
  MASSBFT_RETURN_IF_ERROR(r->GetU16(&gid));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&epoch));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&count));
  return std::unique_ptr<ProtocolMessage>(
      std::make_unique<EpochMarkerMsg>(gid, epoch, count));
}

MsgResult DecodeFreeze(MessageType type, BinaryReader* r) {
  uint16_t dead_gid = 0;
  uint64_t max_seen = 0;
  MASSBFT_RETURN_IF_ERROR(r->GetU16(&dead_gid));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&max_seen));
  return std::unique_ptr<ProtocolMessage>(
      std::make_unique<FreezeMsg>(type, dead_gid, max_seen));
}

MsgResult DecodeCatchUpRequest(BinaryReader* r) {
  uint64_t count = 0;
  MASSBFT_RETURN_IF_ERROR(r->GetVarint(&count));
  MASSBFT_RETURN_IF_ERROR(CheckCount(count, *r));
  std::vector<std::pair<uint16_t, uint64_t>> executed_next;
  executed_next.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint16_t gid = 0;
    uint64_t next = 0;
    MASSBFT_RETURN_IF_ERROR(r->GetU16(&gid));
    MASSBFT_RETURN_IF_ERROR(r->GetU64(&next));
    executed_next.emplace_back(gid, next);
  }
  return std::unique_ptr<ProtocolMessage>(
      std::make_unique<CatchUpRequestMsg>(std::move(executed_next)));
}

MsgResult DecodeLeaderForward(BinaryReader* r) {
  MASSBFT_ASSIGN_OR_RETURN(EntryPtr entry, GetEntry(r));
  MASSBFT_ASSIGN_OR_RETURN(Certificate cert, Certificate::DecodeFrom(r));
  return std::unique_ptr<ProtocolMessage>(
      std::make_unique<LeaderForwardMsg>(std::move(entry), std::move(cert)));
}

MsgResult DecodeBodySwitch(MessageType type, BinaryReader* r) {
  switch (type) {
    case MessageType::kPrePrepare:
      return DecodePrePrepare(r);
    case MessageType::kPrepare:
    case MessageType::kCommit:
      return DecodePbftVote(type, r);
    case MessageType::kCertifyRequest:
    case MessageType::kCertifyVote:
      return DecodeCertify(type, r);
    case MessageType::kEntryTransfer:
      return DecodeEntryTransfer(r);
    case MessageType::kChunkBatch:
      return DecodeChunkBatch(r);
    case MessageType::kRaftPropose:
      return DecodeRaftPropose(r);
    case MessageType::kRaftAccept:
      return DecodeRaftAccept(r);
    case MessageType::kRaftCommit:
      return DecodeRaftCommit(r);
    case MessageType::kTimestampAssign:
      return DecodeTimestampAssign(r);
    case MessageType::kGroupHeartbeat:
      return DecodeGroupHeartbeat(r);
    case MessageType::kGroupRelay:
      return DecodeGroupRelay(r);
    case MessageType::kEpochMarker:
      return DecodeEpochMarker(r);
    case MessageType::kLeaderForward:
      return DecodeLeaderForward(r);
    case MessageType::kCatchUpRequest:
      return DecodeCatchUpRequest(r);
    case MessageType::kFreezeQuery:
    case MessageType::kFreezeReport:
      return DecodeFreeze(type, r);
    case MessageType::kCatchUpDone:
      return std::unique_ptr<ProtocolMessage>(
          std::make_unique<CatchUpDoneMsg>());
  }
  return Status::Corruption("unknown message type");
}

}  // namespace

Result<std::unique_ptr<ProtocolMessage>> DecodeMessageBody(MessageType type,
                                                           BinaryReader* r) {
  MASSBFT_ASSIGN_OR_RETURN(std::unique_ptr<ProtocolMessage> msg,
                           DecodeBodySwitch(type, r));
  if (!r->AtEnd()) return Status::Corruption("trailing bytes after message");
  return msg;
}

}  // namespace massbft
