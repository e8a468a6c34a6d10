// One literal instance of every wire message type, built from fixed field
// values only: no rng, so no dependence on the order in which arguments
// are evaluated. net_test pins the frame each one encodes to
// (WireGoldenTest), and the fuzz seed corpus is made of the same frames.

#ifndef MASSBFT_TESTS_GOLDEN_MESSAGES_H_
#define MASSBFT_TESTS_GOLDEN_MESSAGES_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "proto/messages.h"

namespace massbft {

/// An array whose bytes count up from `first`.
template <typename Array>
Array Filled(uint8_t first) {
  Array a{};
  for (size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<uint8_t>(first + i);
  return a;
}

/// Entry e_{1,5} with two transactions.
inline EntryPtr GoldenEntry() {
  return std::make_shared<const Entry>(
      1, 5,
      std::vector<Transaction>{Transaction{11, 22, 33, Bytes{1, 2, 3}},
                               Transaction{44, 55, 66, Bytes{}}});
}

/// A group-1 certificate with two signers.
inline Certificate GoldenCert() {
  Certificate cert;
  cert.gid = 1;
  cert.digest = Filled<Digest>(0x40);
  cert.AddSignature(0, Filled<Signature>(0x10));
  cert.AddSignature(2, Filled<Signature>(0x80));
  return cert;
}

/// The golden instance of `type`; null for a value no type has.
inline std::shared_ptr<const ProtocolMessage> GoldenMessage(MessageType type) {
  using T = MessageType;
  const DecisionId decision{1, 3, 44, 55};
  const std::vector<TimestampElement> elements{{1, 2, 3, 4}, {5, 6, 7, 8}};
  switch (type) {
    case T::kPrePrepare:
      return NewMessage(type,
                        PrePrepare{GoldenEntry(), Filled<Signature>(0x01)});
    case T::kPrepare:
    case T::kCommit:
      return NewMessage(
          type, PbftVote{9, Filled<Digest>(0x11), Filled<Signature>(0x22)});
    case T::kCertifyRequest:
      return NewMessage(type,
                        SignedDecision{decision, Filled<Signature>(0x33)});
    case T::kCertifyVote:
      return NewMessage(type,
                        SignedDecision{decision, Filled<Signature>(0x44)});
    case T::kEntryTransfer:
    case T::kLeaderForward:
      return NewMessage(type, CertifiedEntry{GoldenEntry(), GoldenCert()});
    case T::kChunkBatch: {
      Chunk chunk{3, Bytes{9, 8, 7, 6},
                  MerkleProof{3, 4, {Filled<Digest>(0x50),
                                     Filled<Digest>(0x60)}}};
      return NewMessage(type, ChunkBatch{1, 7, Filled<Digest>(0x70),
                                         GoldenCert(), {chunk}});
    }
    case T::kRaftPropose:
      return NewMessage(type, RaftPropose{1, 99, GoldenCert()});
    case T::kRaftAccept:
      return NewMessage(type, RaftAccept{1, 3, 17, GoldenCert()});
    case T::kRaftCommit:
      return NewMessage(type, RaftCommit{1, 3, GoldenCert()});
    case T::kGroupHeartbeat:
      return NewMessage(type, GroupHeartbeat{});
    case T::kGroupRelay:
      return NewMessage(type, GroupRelay{true, {{1, 3}, {2, 4}}, elements,
                                         {{2, 5, 300}}});
    case T::kCatchUpRequest:
      return NewMessage(type, CatchUpRequest{{{0, 5}, {1, 200}}});
    case T::kFreezeQuery:
      return NewMessage(type, Freeze{2, 0});
    case T::kFreezeReport:
      return NewMessage(type, Freeze{2, 41});
  }
  return nullptr;
}

}  // namespace massbft

#endif  // MASSBFT_TESTS_GOLDEN_MESSAGES_H_
