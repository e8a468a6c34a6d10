#ifndef MASSBFT_PROTO_MESSAGES_H_
#define MASSBFT_PROTO_MESSAGES_H_

#include <cstdint>
#include <memory>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/logging.h"
#include "common/result.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "proto/entry.h"
#include "proto/field_codec.h"
#include "sim/network.h"

namespace massbft {

/// Wire message kinds. Values are stable (serialized as one byte).
enum class MessageType : uint8_t {
  // Local PBFT (intra-group).
  kPrePrepare = 10,
  kPrepare = 11,
  kCommit = 12,
  kCertifyRequest = 15,  // Skip-prepare decision certification (Ziziphus).
  kCertifyVote = 16,
  // Global replication payloads.
  kEntryTransfer = 20,  // Full entry copy (one-way / bijective / GeoBFT).
  kChunkBatch = 21,     // Erasure-coded chunks with Merkle proofs (EBR).
  // Global Raft control plane.
  kRaftPropose = 30,
  kRaftAccept = 31,
  kRaftCommit = 32,
  kGroupHeartbeat = 34,
  kGroupRelay = 35,  // Ordering facts: leader to leader, leader to group.
  // Protocol-specific.
  kLeaderForward = 41,  // Steward: remote group -> global leader.
  // Crash recovery (Section V-C, "When G_i recovers later...").
  kCatchUpRequest = 50,
  kFreezeQuery = 51,
  kFreezeReport = 52,
};

/// Fixed frame overhead charged on every message in addition to the body:
/// the net/ wire format's frame header (magic u32, version u8, type u8,
/// flags u8, sender NodeId u32, body length u32, CRC32 u32 — see DESIGN.md
/// §12). net/wire.cc static_asserts that its header layout matches this
/// constant, so simulated link accounting and the real transport charge
/// identical per-message overhead.
constexpr size_t kFrameOverheadBytes = 4 + 1 + 1 + 1 + 4 + 4 + 4;

/// Size of the wire trace context (gid u16, seq u64, origin NodeId u32,
/// origin timestamp u64 — DESIGN.md §14) that entry-carrying frames
/// attach after the header. Always present for those types regardless of
/// whether tracing is enabled, so byte accounting never depends on
/// observability settings.
constexpr size_t kTraceContextBytes = 2 + 8 + 4 + 8;

// ----------------------------------------------------------------- Bodies
//
// One plain struct per body layout. Its members, in wire order, are listed
// once by Fields(), from which field_codec.h derives the encoding, the
// decoding and the size. The registry (messages.cc) maps each MessageType
// to its layout; some layouts serve two types.

/// PBFT pre-prepare (kPrePrepare): the group leader's proposal carrying
/// the full entry. The entry's own seq() is the PBFT instance.
struct PrePrepare {
  EntryPtr entry;
  Signature sig{};
  auto Fields() { return std::tie(entry, sig); }
};

/// PBFT prepare and commit votes (kPrepare, kCommit).
struct PbftVote {
  uint64_t seq = 0;
  Digest digest{};
  Signature sig{};
  auto Fields() { return std::tie(seq, digest, sig); }
};

/// Identifies a group-level decision being certified by skip-prepare
/// consensus: e.g. "accept entry e_{target_gid,seq} and stamp it with clock
/// value ts". Certificates sign the SHA-256 of its encoding
/// (DigestCertifier::DecisionDigest); the certificate's gid names the group
/// that decided.
struct DecisionId {
  uint8_t kind = 0;  // DigestCertifier::Kind.
  uint16_t target_gid = 0;
  uint64_t target_seq = 0;
  uint64_t ts = 0;
  auto Fields() { return std::tie(kind, target_gid, target_seq, ts); }

  friend bool operator==(const DecisionId&, const DecisionId&) = default;
  friend auto operator<=>(const DecisionId&, const DecisionId&) = default;
};

/// A signature share over a decision: the leader's request to its group
/// (kCertifyRequest) and a follower's vote back (kCertifyVote). This is
/// PBFT with the prepare phase skipped, valid because the proposing group
/// already certified the input (the paper's Baseline and Ziziphus).
struct SignedDecision {
  DecisionId decision;
  Signature sig{};
  auto Fields() { return std::tie(decision, sig); }
};

/// A full entry copy with its local-consensus certificate
/// (kEntryTransfer), and a Steward group's entry forwarded to the global
/// leader group, which alone may propose (kLeaderForward).
struct CertifiedEntry {
  EntryPtr entry;
  Certificate cert;
  auto Fields() { return std::tie(entry, cert); }
};

/// One erasure-coded chunk plus its Merkle proof.
struct Chunk {
  uint32_t chunk_id = 0;
  Bytes data;
  MerkleProof proof;
  auto Fields() { return std::tie(chunk_id, data, proof); }
};

/// The chunks one sender node transfers to one receiver node (paper
/// Algorithm 1 gives contiguous chunk runs per sender/receiver pair), with
/// the Merkle root and entry certificate for optimistic rebuild
/// (kChunkBatch).
struct ChunkBatch {
  uint16_t gid = 0;
  uint64_t seq = 0;
  Digest merkle_root{};
  Certificate cert;
  std::vector<Chunk> chunks;
  auto Fields() { return std::tie(gid, seq, merkle_root, cert, chunks); }
};

/// One vector-timestamp element assignment: group `assigner_gid` stamps
/// entry e_{target_gid, target_seq} with its clock value `ts`.
struct TimestampElement {
  uint16_t assigner_gid = 0;
  uint16_t target_gid = 0;
  uint64_t target_seq = 0;
  uint64_t ts = 0;
  auto Fields() { return std::tie(assigner_gid, target_gid, target_seq, ts); }

  friend bool operator==(const TimestampElement&,
                         const TimestampElement&) = default;
};

/// Raft propose control message (leader group -> follower groups,
/// kRaftPropose): the entry's certificate, whose digest is the proposed
/// one; the payload itself travels via the replication strategy.
struct RaftPropose {
  uint16_t gid = 0;
  uint64_t seq = 0;
  Certificate cert;
  auto Fields() { return std::tie(gid, seq, cert); }
};

/// Raft accept (kRaftAccept): group cert.gid's receipt for e_{gid,seq},
/// stamped with its clock value `ts` (MassBFT) and protected by its
/// certificate over DecisionId{kAccept, gid, seq, ts}.
struct RaftAccept {
  uint16_t gid = 0;
  uint64_t seq = 0;
  uint64_t ts = 0;
  Certificate cert;
  auto Fields() { return std::tie(gid, seq, ts, cert); }
};

/// Raft commit (kRaftCommit): the proposer announces e_{gid,seq} is
/// globally replicated.
struct RaftCommit {
  uint16_t gid = 0;
  uint64_t seq = 0;
  Certificate cert;
  auto Fields() { return std::tie(gid, seq, cert); }
};

/// The facts that fix the execution order (kGroupRelay), one list per
/// OrderingEngine hook: global commits (OnCommitted), vector-timestamp
/// stamps (OnTimestamp) and ISS epoch seals (OnEpochSealed). A leader
/// sends them to its group members over LAN, and to peer group leaders
/// when they are its own group's (epoch seals) or its takeover stamps.
/// `replay` marks catch-up history for a recovering leader: it is applied
/// ahead of the live stamps buffered meanwhile (preserving per-assigner
/// stamp order), and its arrival ends the sync.
struct GroupRelay {
  /// e_{gid,seq} is globally committed.
  struct Commit {
    uint16_t gid = 0;
    uint64_t seq = 0;
    auto Fields() { return std::tie(gid, seq); }
  };
  /// Group `gid` sealed `epoch` with `count` entries.
  struct Seal {
    uint16_t gid = 0;
    uint64_t epoch = 0;
    uint64_t count = 0;
    auto Fields() { return std::tie(gid, epoch, count); }
  };
  // Defaulted, so a designated initializer may name only the lists it
  // fills.
  bool replay = false;
  std::vector<Commit> commits = {};
  std::vector<TimestampElement> stamps = {};
  std::vector<Seal> seals = {};
  auto Fields() { return std::tie(replay, commits, stamps, seals); }
  /// Carries no fact.
  bool empty() const {
    return commits.empty() && stamps.empty() && seals.empty();
  }
};

/// Group liveness heartbeat (kGroupHeartbeat; crash detection for Raft
/// leader takeover). It speaks for its sender's group, so it carries
/// nothing.
struct GroupHeartbeat {
  auto Fields() { return std::tie(); }
};

/// Takeover freeze agreement (kFreezeQuery, kFreezeReport): before
/// assigning a crashed group's clock, the takeover leader collects every
/// alive leader's highest observed stamp from that group, so the frozen
/// value never regresses below a stamp that reached only part of the
/// cluster.
struct Freeze {
  uint16_t dead_gid = 0;
  uint64_t max_seen = 0;
  auto Fields() { return std::tie(dead_gid, max_seen); }
};

/// A recovered group's leader asks a peer group leader to replay what it
/// missed (kCatchUpRequest): entry payloads, commit decisions, and VTS
/// assignments past the requester's per-instance execution frontier.
struct CatchUpRequest {
  /// The next sequence of instance `gid` the requester would execute.
  struct Next {
    uint16_t gid = 0;
    uint64_t seq = 0;
    auto Fields() { return std::tie(gid, seq); }
  };
  std::vector<Next> executed_next;
  auto Fields() { return std::tie(executed_next); }
};

// --------------------------------------------------------------- Registry

class ProtocolMessage;
using BodyDecoder = Result<std::unique_ptr<ProtocolMessage>> (*)(
    MessageType, BinaryReader*);

/// One row per MessageType: everything about a type besides its body's
/// field list.
struct MessageTypeInfo {
  MessageType type;
  /// Stable lowercase name for diagnostics.
  const char* name;
  /// Frames of this type attach a wire trace context: the types that
  /// carry or propose an entry, the hops that stitch an entry's cross-node
  /// lifecycle together in the merged trace.
  bool carries_trace;
  /// Decodes one whole body of the type's layout (DecodeAs<Body>): the
  /// inverse of EncodeBodyTo. Rejects malformed, truncated or trailing
  /// bytes with an error Status; never crashes on malformed input.
  BodyDecoder decode;
};

/// Every registered type, in MessageType order.
std::span<const MessageTypeInfo> MessageTypes();

/// The row for `type`, or null for a value no type has.
const MessageTypeInfo* FindMessageType(MessageType type);

// --------------------------------------------------------------- Envelope

/// Common base for every wire message; Message<Body> is the only subclass.
/// Messages are immutable after construction, so simulated nodes share
/// them by pointer.
class ProtocolMessage : public SimMessage {
 public:
  int type() const override { return static_cast<int>(info_->type); }
  MessageType message_type() const { return info_->type; }
  const MessageTypeInfo& info() const { return *info_; }

  /// The bytes this message costs on a link: the frame it encodes to.
  size_t ByteSize() const override {
    return kFrameOverheadBytes +
           (info_->carries_trace ? kTraceContextBytes : 0) + BodySize();
  }

  /// Serializes the body (everything after the frame header and trace
  /// context). The registry row's decode() inverts it.
  virtual void EncodeBodyTo(BinaryWriter* w) const = 0;
  /// Encoded body size in bytes, counted without encoding.
  virtual size_t BodySize() const = 0;
  /// Entry identity for cross-node trace correlation: fills (gid, seq) and
  /// returns true exactly when info().carries_trace holds.
  virtual bool TraceKey(uint16_t* gid, uint64_t* seq) const = 0;

 protected:
  /// `decoder` names the body layout; it must be `type`'s registered one.
  ProtocolMessage(MessageType type, BodyDecoder decoder);

 private:
  const MessageTypeInfo* info_;
};

template <class Body>
[[nodiscard]] Result<std::unique_ptr<ProtocolMessage>> DecodeAs(
    MessageType type, BinaryReader* r);

/// A message of `type` carrying `body`. The constructor checks that
/// `Body` is the type's registered layout, so a handler that switches on
/// the type reads the right struct.
template <class Body>
class Message final : public ProtocolMessage {
 public:
  Message(MessageType type, Body value)
      : ProtocolMessage(type, &DecodeAs<Body>), body(std::move(value)) {}

  const Body body;

  void EncodeBodyTo(BinaryWriter* w) const override {
    field::Encode(w, body);
  }
  size_t BodySize() const override { return field::Size(body); }
  /// Keyed by the carried entry, or else by the body's (gid, seq).
  bool TraceKey(uint16_t* gid, uint64_t* seq) const override {
    if (!info().carries_trace) return false;
    if constexpr (requires { body.entry->seq(); }) {
      *gid = body.entry->gid();
      *seq = body.entry->seq();
      return true;
    } else if constexpr (requires { body.gid; body.seq; }) {
      *gid = body.gid;
      *seq = body.seq;
      return true;
    } else {
      return false;
    }
  }
};

/// The registry's decoder for layout `Body`.
template <class Body>
[[nodiscard]] Result<std::unique_ptr<ProtocolMessage>> DecodeAs(
    MessageType type, BinaryReader* r) {
  Body body;
  MASSBFT_RETURN_IF_ERROR(field::Decode(r, &body));
  if (!r->AtEnd()) return Status::Corruption("trailing bytes after message");
  return std::unique_ptr<ProtocolMessage>(
      std::make_unique<Message<Body>>(type, std::move(body)));
}

/// A shared message of `type` carrying `body`, ready to send.
template <class Body>
std::shared_ptr<const Message<Body>> NewMessage(MessageType type, Body body) {
  return std::make_shared<const Message<Body>>(type, std::move(body));
}

/// The body of a received message, which must have layout `Body`.
template <class Body>
const Body& BodyOf(const SimMessage& message) {
  const auto& msg = static_cast<const ProtocolMessage&>(message);
  MASSBFT_CHECK(msg.info().decode == &DecodeAs<Body>);
  return static_cast<const Message<Body>&>(msg).body;
}

}  // namespace massbft

#endif  // MASSBFT_PROTO_MESSAGES_H_
