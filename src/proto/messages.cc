#include "proto/messages.h"

namespace massbft {

namespace {

constexpr MessageTypeInfo kRegistry[] = {
    {MessageType::kPrePrepare, "pre_prepare", true, &DecodeAs<PrePrepare>},
    {MessageType::kPrepare, "prepare", false, &DecodeAs<PbftVote>},
    {MessageType::kCommit, "commit", false, &DecodeAs<PbftVote>},
    {MessageType::kCertifyRequest, "certify_request", false,
     &DecodeAs<SignedDecision>},
    {MessageType::kCertifyVote, "certify_vote", false,
     &DecodeAs<SignedDecision>},
    {MessageType::kEntryTransfer, "entry_transfer", true,
     &DecodeAs<CertifiedEntry>},
    {MessageType::kChunkBatch, "chunk_batch", true, &DecodeAs<ChunkBatch>},
    {MessageType::kRaftPropose, "raft_propose", true, &DecodeAs<RaftPropose>},
    {MessageType::kRaftAccept, "raft_accept", false, &DecodeAs<RaftAccept>},
    {MessageType::kRaftCommit, "raft_commit", false, &DecodeAs<RaftCommit>},
    {MessageType::kGroupHeartbeat, "group_heartbeat", false,
     &DecodeAs<GroupHeartbeat>},
    {MessageType::kGroupRelay, "group_relay", false, &DecodeAs<GroupRelay>},
    {MessageType::kLeaderForward, "leader_forward", true,
     &DecodeAs<CertifiedEntry>},
    {MessageType::kCatchUpRequest, "catch_up_request", false,
     &DecodeAs<CatchUpRequest>},
    {MessageType::kFreezeQuery, "freeze_query", false, &DecodeAs<Freeze>},
    {MessageType::kFreezeReport, "freeze_report", false, &DecodeAs<Freeze>},
};

}  // namespace

std::span<const MessageTypeInfo> MessageTypes() { return kRegistry; }

const MessageTypeInfo* FindMessageType(MessageType type) {
  for (const MessageTypeInfo& info : kRegistry)
    if (info.type == type) return &info;
  return nullptr;
}

ProtocolMessage::ProtocolMessage(MessageType type, BodyDecoder decoder)
    : info_(FindMessageType(type)) {
  MASSBFT_CHECK(info_ != nullptr && info_->decode == decoder);
}

}  // namespace massbft
