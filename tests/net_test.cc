#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cpu.h"
#include "common/rng.h"
#include "consensus/pbft/certifier.h"
#include "consensus/pbft/pbft.h"
#include "crypto/sha256.h"
#include "golden_messages.h"
#include "net/crc32.h"
#include "net/rx_ring.h"
#include "net/inproc_transport.h"
#include "net/tcp_transport.h"
#include "net/wire.h"
#include "proto/messages.h"

namespace massbft {
namespace {

// ------------------------------------------------------------ Crc32

TEST(Crc32Test, KnownVectors) {
  // The standard CRC-32 check value.
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32::Compute(check, sizeof(check)), 0xCBF43926u);
  EXPECT_EQ(Crc32::Compute(nullptr, 0), 0x00000000u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  Bytes data(1000);
  Rng rng(7);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextU64());
  Crc32 crc;
  crc.Update(data.data(), 100);
  crc.Update(data.data() + 100, 1);
  crc.Update(data.data() + 101, data.size() - 101);
  EXPECT_EQ(crc.Finish(), Crc32::Compute(data.data(), data.size()));
}

// ---------------------------------------------------- Message factory

Signature RandSig(Rng& rng) {
  Signature sig;
  for (auto& b : sig) b = static_cast<uint8_t>(rng.NextU64());
  return sig;
}

Digest RandDigest(Rng& rng) {
  Digest d;
  for (auto& b : d) b = static_cast<uint8_t>(rng.NextU64());
  return d;
}

Transaction RandTxn(Rng& rng) {
  Transaction txn;
  txn.id = rng.NextU64();
  txn.client = static_cast<uint32_t>(rng.NextU64());
  txn.submit_time = static_cast<SimTime>(rng.NextBelow(1u << 30));
  txn.payload.resize(rng.NextBelow(200));
  for (auto& b : txn.payload) b = static_cast<uint8_t>(rng.NextU64());
  return txn;
}

EntryPtr RandEntry(Rng& rng) {
  std::vector<Transaction> txns;
  size_t n = rng.NextBelow(4);
  for (size_t i = 0; i < n; ++i) txns.push_back(RandTxn(rng));
  return std::make_shared<const Entry>(
      static_cast<uint16_t>(rng.NextBelow(8)), rng.NextU64(),
      std::move(txns));
}

Certificate RandCert(Rng& rng) {
  Certificate cert;
  cert.gid = static_cast<uint16_t>(rng.NextBelow(8));
  cert.digest = RandDigest(rng);
  size_t n = 1 + rng.NextBelow(3);
  for (size_t i = 0; i < n; ++i)
    cert.AddSignature(static_cast<uint16_t>(i), RandSig(rng));
  return cert;
}

DecisionId RandDecision(Rng& rng) {
  DecisionId d;
  d.kind = static_cast<uint8_t>(rng.NextBelow(4));
  d.target_gid = static_cast<uint16_t>(rng.NextBelow(8));
  d.target_seq = rng.NextU64();
  d.ts = rng.NextU64();
  return d;
}

std::vector<TimestampElement> RandElements(Rng& rng) {
  std::vector<TimestampElement> elements;
  size_t n = 1 + rng.NextBelow(5);
  for (size_t i = 0; i < n; ++i)
    elements.push_back(TimestampElement{
        static_cast<uint16_t>(rng.NextBelow(8)),
        static_cast<uint16_t>(rng.NextBelow(8)), rng.NextU64(),
        rng.NextU64()});
  return elements;
}

std::vector<Chunk> RandChunks(Rng& rng) {
  std::vector<Chunk> chunks;
  size_t n = 1 + rng.NextBelow(3);
  for (size_t i = 0; i < n; ++i) {
    Chunk c;
    c.chunk_id = static_cast<uint32_t>(rng.NextU64());
    c.data.resize(1 + rng.NextBelow(64));
    for (auto& b : c.data) b = static_cast<uint8_t>(rng.NextU64());
    c.proof.index = static_cast<uint32_t>(i);
    c.proof.leaf_count = static_cast<uint32_t>(n);
    c.proof.path = {RandDigest(rng), RandDigest(rng)};
    chunks.push_back(std::move(c));
  }
  return chunks;
}

/// The small frame most transport tests send; `max_seen` numbers it.
Message<Freeze> FreezeQuery(uint16_t dead_gid, uint64_t max_seen) {
  return {MessageType::kFreezeQuery, {dead_gid, max_seen}};
}

/// A randomized instance of every registered message type; null for a
/// type it does not know, which fails the round-trip test.
std::shared_ptr<const ProtocolMessage> MakeMessage(MessageType type,
                                                   Rng& rng) {
  using T = MessageType;
  auto gid = [&rng] { return static_cast<uint16_t>(rng.NextBelow(8)); };
  switch (type) {
    case T::kPrePrepare:
      return NewMessage(type, PrePrepare{RandEntry(rng), RandSig(rng)});
    case T::kPrepare:
    case T::kCommit:
      return NewMessage(
          type, PbftVote{rng.NextU64(), RandDigest(rng), RandSig(rng)});
    case T::kCertifyRequest:
    case T::kCertifyVote:
      return NewMessage(type,
                        SignedDecision{RandDecision(rng), RandSig(rng)});
    case T::kEntryTransfer:
    case T::kLeaderForward:
      return NewMessage(type, CertifiedEntry{RandEntry(rng), RandCert(rng)});
    case T::kChunkBatch:
      return NewMessage(type, ChunkBatch{gid(), rng.NextU64(),
                                         RandDigest(rng), RandCert(rng),
                                         RandChunks(rng)});
    case T::kRaftPropose:
      return NewMessage(type,
                        RaftPropose{gid(), rng.NextU64(), RandCert(rng)});
    case T::kRaftAccept:
      return NewMessage(type, RaftAccept{gid(), rng.NextU64(), rng.NextU64(),
                                         RandCert(rng)});
    case T::kRaftCommit:
      return NewMessage(type,
                        RaftCommit{gid(), rng.NextU64(), RandCert(rng)});
    case T::kGroupHeartbeat:
      return NewMessage(type, GroupHeartbeat{});
    case T::kGroupRelay: {
      GroupRelay relay{rng.NextBelow(2) == 0, {}, RandElements(rng), {}};
      size_t n = 1 + rng.NextBelow(4);
      for (size_t i = 0; i < n; ++i) {
        relay.commits.push_back({gid(), rng.NextU64()});
        relay.seals.push_back({gid(), rng.NextU64(), rng.NextU64()});
      }
      return NewMessage(type, std::move(relay));
    }
    case T::kCatchUpRequest: {
      CatchUpRequest request;
      size_t n = 1 + rng.NextBelow(4);
      for (size_t i = 0; i < n; ++i)
        request.executed_next.push_back(
            {static_cast<uint16_t>(i), rng.NextU64()});
      return NewMessage(type, std::move(request));
    }
    case T::kFreezeQuery:
    case T::kFreezeReport:
      return NewMessage(type, Freeze{gid(), rng.NextU64()});
  }
  return nullptr;
}

// ------------------------------------------------------------ Golden

/// SHA-256 of each type's GoldenMessage frame, sent by (1,2) at origin time
/// 777. A changed hash is a changed wire format: every peer, the golden
/// runs and the figures' byte counts move with it.
constexpr std::pair<MessageType, const char*> kGoldenFrameHashes[] = {
    {MessageType::kPrePrepare,
     "119f04ffcc6d8b0ec7f6bfb861a675375b2f49168b3467891b20f779872abf23"},
    {MessageType::kPrepare,
     "ed83571ac99dc7c4c13143cd99123e1a31a643e63da6e598247f2699dd7cb25e"},
    {MessageType::kCommit,
     "f0920e8af74d1993a5970662962e1da3e8cb644251e09201b52563d5663782f8"},
    {MessageType::kCertifyRequest,
     "04686773bdccb429c39e651bf59e04259b33480642a438c99dfe0b727ebf716c"},
    {MessageType::kCertifyVote,
     "2a273482e4ab8b90c38fdb6718e676360e18c5bb545e78cc687708030625f57f"},
    {MessageType::kEntryTransfer,
     "35697567fa456ee111e0709958f0a2a3d69e2d1b44faaa924ce6dc847c46610c"},
    {MessageType::kChunkBatch,
     "2208e5259a40e5cd63d3c2db62a2fd754eaf94eb5df6b5fcf1cf843bf7c908d9"},
    {MessageType::kRaftPropose,
     "aa052abd04e208cde3b4deee8d1d1cfe88908d0af64de481a6a8cc88bd898743"},
    {MessageType::kRaftAccept,
     "772f3f70dc3f02cefb9aa6708867a0e3f673b1b92ed7364e3dd66b8c984b2211"},
    {MessageType::kRaftCommit,
     "562b7bfdb5cd6a674cf54c16b49e12f4cb6c99d32a1433c77c141ef7a39176b7"},
    {MessageType::kGroupHeartbeat,
     "e98a9ab56f74ddb316a135620dd282c97f3d9e02a3ae0fb0b5003c28755e8a69"},
    {MessageType::kGroupRelay,
     "4c3174b4f24c31066515af59c1b6957c15ae020d74c847bd917409e0674a0fc8"},
    {MessageType::kLeaderForward,
     "d5517e0dea61695bacac4d13a00da8a332873643ab8653200b65b555ef4940bf"},
    {MessageType::kCatchUpRequest,
     "da43a46a10b67bf3914fbd3c1049f04566161424c7523a0691e6116a52dd738f"},
    {MessageType::kFreezeQuery,
     "f63840bc73acedf5186fb63443111739b6224c1695e033311a472008a6fcff09"},
    {MessageType::kFreezeReport,
     "8c51f6b476acc4b3eefe0050d4c54136952a9f3678c9cec251a855d140376ddb"},
};

TEST(WireGoldenTest, EveryTypeEncodesToRecordedBytes) {
  ASSERT_EQ(std::size(kGoldenFrameHashes), MessageTypes().size());
  for (const auto& [type, hash] : kGoldenFrameHashes) {
    auto msg = GoldenMessage(type);
    ASSERT_NE(msg, nullptr);
    const Bytes wire = EncodeFrame(*msg, NodeId{1, 2}, 777);
    EXPECT_EQ(DigestToHex(Sha256::Hash(wire)), hash)
        << FindMessageType(type)->name;
  }
}

/// The exact bytes PbftEngine hands its sign callback: a one-node group's
/// leader signs its pre-prepare and then its commit; a follower of a
/// four-node group signs its prepare. Plus the digest a DecisionId
/// certificate signs. A change here invalidates every signature peers hold.
TEST(WireGoldenTest, SignedBytesAreRecorded) {
  std::vector<Bytes> signed_bytes;
  auto callbacks = [&signed_bytes] {
    PbftEngine::Callbacks cb;
    cb.broadcast = [](MessagePtr) {};
    cb.sign = [&signed_bytes](const Bytes& payload) {
      signed_bytes.push_back(payload);
      return Signature{};
    };
    cb.verify = [](NodeId, const Bytes&, const Signature&) { return true; };
    cb.validate_entry = [](EntryPtr, std::function<void(bool)> done) {
      done(true);
    };
    cb.on_committed = [](EntryPtr, Certificate) {};
    return cb;
  };
  PbftEngine leader(1, NodeId{1, 0}, 1, /*leader=*/0, callbacks());
  leader.Propose(GoldenEntry());
  PbftEngine follower(1, NodeId{1, 1}, 4, /*leader=*/0, callbacks());
  follower.OnMessage(NodeId{1, 0},
                     NewMessage(MessageType::kPrePrepare,
                                PrePrepare{GoldenEntry(), Signature{}}));
  ASSERT_EQ(signed_bytes.size(), 3u);
  // Pre-prepare: phase, gid, seq (the entry's), entry digest.
  EXPECT_EQ(ToHex(signed_bytes[0]),
            "0a" "0100" "0500000000000000"
            "39b54f2ba73920ec67aef096e2831dac78384e16227da44d426bdd772508432e");
  // Commit: the bare entry digest (the certificate's signed value).
  EXPECT_EQ(ToHex(signed_bytes[1]),
            "39b54f2ba73920ec67aef096e2831dac78384e16227da44d426bdd772508432e");
  // Prepare for the same seq.
  EXPECT_EQ(ToHex(signed_bytes[2]),
            "0b" "0100" "0500000000000000"
            "39b54f2ba73920ec67aef096e2831dac78384e16227da44d426bdd772508432e");
  EXPECT_EQ(
      DigestToHex(DigestCertifier::DecisionDigest(DecisionId{1, 3, 44, 55})),
      "0542e399bede8fe4ea8103b165922657557b74a92074748915e45b09c8b9dadf");
}

// ------------------------------------------------------------ Roundtrip

/// Every message kind survives encode -> decode -> re-encode with
/// byte-identical frames (which proves field-level equality without
/// per-field comparison), and ByteSize() equals the real frame size.
TEST(WireRoundTripTest, EveryMessageTypeRoundTrips) {
  Rng rng(42);
  const NodeId src{3, 7};
  for (const MessageTypeInfo& info : MessageTypes()) {
    const MessageType type = info.type;
    for (int iteration = 0; iteration < 8; ++iteration) {
      auto msg = MakeMessage(type, rng);
      ASSERT_NE(msg, nullptr) << "no factory for " << info.name;
      // Fixed origin timestamp so the re-encode comparison below is
      // byte-exact (the default overload stamps TraceClock::NowNs()).
      Bytes wire = EncodeFrame(*msg, src, 777);
      EXPECT_EQ(wire.size(), msg->ByteSize()) << info.name;

      auto peeked = PeekFrameLength(wire.data(), wire.size());
      ASSERT_TRUE(peeked.ok());
      EXPECT_EQ(*peeked, wire.size());

      auto frame = DecodeFrame(wire);
      ASSERT_TRUE(frame.ok())
          << info.name << ": " << frame.status().ToString();
      EXPECT_EQ(frame->src, src);
      ASSERT_NE(frame->msg, nullptr);
      EXPECT_EQ(frame->msg->message_type(), type);

      EXPECT_EQ(frame->has_trace, info.carries_trace);

      Bytes rewire = EncodeFrame(*frame->msg, src, 777);
      EXPECT_EQ(rewire, wire) << "re-encode divergence for " << info.name;
    }
  }
}

TEST(WireRoundTripTest, FieldLevelSpotChecks) {
  Rng rng(1);
  const NodeId src{1, 2};
  {
    auto entry = RandEntry(rng);
    auto cert = RandCert(rng);
    Message<CertifiedEntry> msg(MessageType::kEntryTransfer, {entry, cert});
    auto frame = DecodeFrame(EncodeFrame(msg, src));
    ASSERT_TRUE(frame.ok());
    const auto& decoded = BodyOf<CertifiedEntry>(*frame->msg);
    EXPECT_EQ(decoded.entry->digest(), entry->digest());
    EXPECT_EQ(decoded.entry->DecodeTxns(), entry->DecodeTxns());
    EXPECT_EQ(decoded.cert, cert);
  }
  {
    auto cert = RandCert(rng);
    Message<RaftPropose> msg(MessageType::kRaftPropose, {4, 99, cert});
    auto frame = DecodeFrame(EncodeFrame(msg, src));
    ASSERT_TRUE(frame.ok());
    const auto& decoded = BodyOf<RaftPropose>(*frame->msg);
    EXPECT_EQ(decoded.gid, 4);
    EXPECT_EQ(decoded.seq, 99u);
    EXPECT_EQ(decoded.cert, cert);
  }
  {
    auto chunks = RandChunks(rng);
    const Digest root = RandDigest(rng);
    Message<ChunkBatch> msg(MessageType::kChunkBatch,
                            {1, 7, root, RandCert(rng), chunks});
    auto frame = DecodeFrame(EncodeFrame(msg, src));
    ASSERT_TRUE(frame.ok());
    const auto& decoded = BodyOf<ChunkBatch>(*frame->msg);
    ASSERT_EQ(decoded.chunks.size(), chunks.size());
    EXPECT_EQ(decoded.chunks[0].data, chunks[0].data);
    EXPECT_EQ(decoded.chunks[0].proof.path, chunks[0].proof.path);
    EXPECT_EQ(decoded.merkle_root, root);
  }
}

// ------------------------------------------------------------ Malformed

Bytes SampleFrame() {
  auto msg = FreezeQuery(1, 12345);
  return EncodeFrame(msg, NodeId{0, 1});
}

/// Recomputes the CRC after tampering with header/body bytes so tests hit
/// the check they target instead of tripping the CRC first.
void FixCrc(Bytes& wire) {
  Crc32 crc;
  crc.Update(wire.data() + 4, kFrameHeaderBytes - 8);  // version..body_len
  crc.Update(wire.data() + kFrameHeaderBytes,
             wire.size() - kFrameHeaderBytes);
  uint32_t value = crc.Finish();
  for (int i = 0; i < 4; ++i)
    wire[kFrameHeaderBytes - 4 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(value >> (8 * i));
}

// ------------------------------------------------------- Trace context

TEST(WireTraceContextTest, EntryCarryingFrameRoundTripsContext) {
  auto entry = std::make_shared<const Entry>(3, 42, std::vector<Transaction>{});
  Certificate cert;
  Message<CertifiedEntry> msg(MessageType::kEntryTransfer, {entry, cert});
  const NodeId src{3, 5};
  auto frame = DecodeFrame(EncodeFrame(msg, src, 123456789));
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->has_trace);
  EXPECT_EQ(frame->trace.gid, 3);
  EXPECT_EQ(frame->trace.seq, 42u);
  EXPECT_EQ(frame->trace.origin, src.Packed());
  EXPECT_EQ(frame->trace.origin_ts_ns, 123456789u);
}

TEST(WireTraceContextTest, NonCarryingFrameHasNoContext) {
  auto msg = FreezeQuery(0, 7);
  auto frame = DecodeFrame(EncodeFrame(msg, NodeId{0, 1}));
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(frame->has_trace);
}

TEST(WireTraceContextTest, DefaultEncodeStampsTraceClock) {
  // The convenience overload stamps TraceClock::NowNs(): two encodes of
  // the same message must carry non-decreasing origin timestamps.
  auto entry = std::make_shared<const Entry>(1, 9, std::vector<Transaction>{});
  Message<CertifiedEntry> msg(MessageType::kEntryTransfer,
                              {entry, Certificate{}});
  auto first = DecodeFrame(EncodeFrame(msg, NodeId{1, 0}));
  auto second = DecodeFrame(EncodeFrame(msg, NodeId{1, 0}));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_LE(first->trace.origin_ts_ns, second->trace.origin_ts_ns);
}

TEST(WireTraceContextTest, FlagMismatchingTypeIsRejected) {
  // Strip the flag from an entry-carrying frame: decode must refuse, or
  // sim/real byte accounting could silently diverge.
  auto entry = std::make_shared<const Entry>(0, 1, std::vector<Transaction>{});
  Message<CertifiedEntry> msg(MessageType::kEntryTransfer,
                              {entry, Certificate{}});
  Bytes wire = EncodeFrame(msg, NodeId{0, 0}, 1);
  wire[6] = 0;  // flags byte
  // Splice out the 22-byte context so the frame is self-consistent again.
  wire.erase(wire.begin() + static_cast<ptrdiff_t>(kFrameHeaderBytes),
             wire.begin() +
                 static_cast<ptrdiff_t>(kFrameHeaderBytes + kTraceContextBytes));
  FixCrc(wire);
  auto frame = DecodeFrame(wire);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsCorruption());
}

TEST(WireMalformedTest, TruncatedAtEveryLengthIsRejected) {
  Bytes wire = SampleFrame();
  for (size_t len = 0; len < wire.size(); ++len) {
    auto frame = DecodeFrame(wire.data(), len);
    EXPECT_FALSE(frame.ok()) << "accepted a " << len << "-byte prefix";
  }
}

TEST(WireMalformedTest, TrailingBytesAreRejected) {
  Bytes wire = SampleFrame();
  wire.push_back(0);
  EXPECT_FALSE(DecodeFrame(wire).ok());
}

TEST(WireMalformedTest, BadMagicIsRejected) {
  Bytes wire = SampleFrame();
  wire[0] ^= 0xFF;
  EXPECT_FALSE(DecodeFrame(wire).ok());
  EXPECT_FALSE(PeekFrameLength(wire.data(), wire.size()).ok());
}

TEST(WireMalformedTest, BadVersionIsRejected) {
  Bytes wire = SampleFrame();
  wire[4] = kWireVersion + 1;
  FixCrc(wire);
  EXPECT_FALSE(DecodeFrame(wire).ok());
  EXPECT_FALSE(PeekFrameLength(wire.data(), wire.size()).ok());
}

TEST(WireMalformedTest, WrongCrcIsRejected) {
  Bytes wire = SampleFrame();
  wire[kFrameHeaderBytes - 4] ^= 0x01;  // CRC field itself.
  EXPECT_FALSE(DecodeFrame(wire).ok());
  wire = SampleFrame();
  wire.back() ^= 0x01;  // Body byte.
  auto frame = DecodeFrame(wire);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsCorruption());
}

TEST(WireMalformedTest, UnknownTypeIsRejectedNotCrashed) {
  Bytes wire = SampleFrame();
  wire[5] = 99;  // No such MessageType.
  FixCrc(wire);
  auto frame = DecodeFrame(wire);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsCorruption());
}

TEST(WireMalformedTest, OversizedBodyLengthIsRejected) {
  Bytes wire = SampleFrame();
  uint32_t huge = kMaxBodyBytes + 1;
  for (int i = 0; i < 4; ++i)
    wire[11 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(huge >> (8 * i));
  EXPECT_FALSE(PeekFrameLength(wire.data(), wire.size()).ok());
  EXPECT_FALSE(DecodeFrame(wire).ok());
}

/// `msg`'s frame (a type without a trace context) with its body replaced
/// by `body` and the length and CRC fixed up, so the bytes reach the body
/// decoder.
Bytes Reframe(const ProtocolMessage& msg, const Bytes& body) {
  Bytes wire = EncodeFrame(msg, NodeId{0, 0});
  wire.resize(kFrameHeaderBytes);
  wire.insert(wire.end(), body.begin(), body.end());
  const uint32_t body_len = static_cast<uint32_t>(body.size());
  for (int i = 0; i < 4; ++i)
    wire[11 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(body_len >> (8 * i));
  FixCrc(wire);
  return wire;
}

TEST(WireMalformedTest, ImplausibleElementCountIsRejected) {
  // A GroupRelay body claiming 2^28 commits in a 5-byte body must fail
  // the plausibility check, not attempt a giant allocation.
  BinaryWriter body;
  body.PutU8(0);  // replay
  body.PutVarint(1u << 28);
  auto frame = DecodeFrame(Reframe(
      *NewMessage(MessageType::kGroupRelay, GroupRelay{}), body.buffer()));
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsCorruption());
}

/// Accepted frames are canonical: one message has one encoding. A `replay`
/// flag of 2 would decode as true and re-encode as 1.
TEST(WireMalformedTest, BoolOtherThanZeroOrOneIsRejected) {
  const Bytes two = {2, 0, 0, 0};  // replay = 2, three empty lists.
  const Bytes one = {1, 0, 0, 0};
  const auto relay = NewMessage(MessageType::kGroupRelay, GroupRelay{});
  auto frame = DecodeFrame(Reframe(*relay, two));
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsCorruption());
  EXPECT_TRUE(DecodeFrame(Reframe(*relay, one)).ok());
}

/// A count of 1 written as 0x81 0x00 names the same value as 0x01: the
/// decoder takes only the minimal form.
TEST(WireMalformedTest, NonMinimalVarintIsRejected) {
  const Bytes pair = {3, 0, 5, 0, 0, 0, 0, 0, 0, 0};  // gid 3, next 5.
  Bytes padded = {0x81, 0x00};
  padded.insert(padded.end(), pair.begin(), pair.end());
  Bytes minimal = {0x01};
  minimal.insert(minimal.end(), pair.begin(), pair.end());
  const auto sample =
      NewMessage(MessageType::kCatchUpRequest, CatchUpRequest{});
  auto frame = DecodeFrame(Reframe(*sample, padded));
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsCorruption());
  EXPECT_TRUE(DecodeFrame(Reframe(*sample, minimal)).ok());
}

/// The trace context's entry key and origin follow from the message and
/// its sender, so a context naming another entry or node is rejected: it
/// would re-encode to different bytes.
TEST(WireMalformedTest, TraceContextMustMatchTheFrame) {
  auto entry = std::make_shared<const Entry>(3, 42, std::vector<Transaction>{});
  Message<CertifiedEntry> msg(MessageType::kEntryTransfer,
                              {entry, Certificate{}});
  const Bytes good = EncodeFrame(msg, NodeId{3, 5}, 1);
  ASSERT_TRUE(DecodeFrame(good).ok());
  // The context's gid, seq and origin start at offsets 19, 21 and 29.
  for (size_t offset : {19, 21, 29}) {
    Bytes wire = good;
    wire[offset] ^= 0x01;
    FixCrc(wire);
    auto frame = DecodeFrame(wire);
    ASSERT_FALSE(frame.ok()) << "offset " << offset;
    EXPECT_TRUE(frame.status().IsCorruption());
  }
}

/// Fuzz-ish: random corruption of one byte anywhere in the frame must
/// yield an error or a well-formed decode — never a crash.
TEST(WireMalformedTest, SingleByteCorruptionNeverCrashes) {
  Rng rng(9);
  for (const MessageTypeInfo& info : MessageTypes()) {
    const MessageType type = info.type;
    auto msg = MakeMessage(type, rng);
    Bytes wire = EncodeFrame(*msg, NodeId{1, 1});
    for (int trial = 0; trial < 32; ++trial) {
      Bytes corrupt = wire;
      corrupt[rng.NextBelow(corrupt.size())] ^=
          static_cast<uint8_t>(1 + rng.NextBelow(255));
      auto frame = DecodeFrame(corrupt);  // Must not crash.
      if (frame.ok()) {
        EXPECT_NE(frame->msg, nullptr);
      }
    }
  }
}

// ------------------------------------------------------------ Transports

/// Collects delivered frames with a latch the test can wait on.
struct Sink {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Frame> frames;

  Transport::DeliverFn fn() {
    return [this](Frame f) {
      std::lock_guard<std::mutex> lock(mu);
      frames.push_back(std::move(f));
      cv.notify_all();
    };
  }
  bool WaitForCount(size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return frames.size() >= n; });
  }
};

TEST(InProcTransportTest, DeliversThroughFullCodec) {
  InProcHub hub;
  auto a = hub.CreateTransport(NodeId{0, 0});
  auto b = hub.CreateTransport(NodeId{0, 1});
  Sink sink_a, sink_b;
  ASSERT_TRUE(a->Start(sink_a.fn()).ok());
  ASSERT_TRUE(b->Start(sink_b.fn()).ok());

  auto msg = FreezeQuery(2, 77);
  ASSERT_TRUE(a->Send(NodeId{0, 1}, msg).ok());
  ASSERT_TRUE(sink_b.WaitForCount(1));
  EXPECT_EQ(sink_b.frames[0].src, (NodeId{0, 0}));
  const auto& decoded = BodyOf<Freeze>(*sink_b.frames[0].msg);
  EXPECT_EQ(decoded.dead_gid, 2);
  EXPECT_EQ(decoded.max_seen, 77u);

  EXPECT_EQ(a->stats().frames_sent, 1u);
  EXPECT_EQ(a->stats().bytes_sent, msg.ByteSize());
  EXPECT_EQ(b->stats().frames_received, 1u);

  // Unknown destination is a local error, counted, not a crash.
  EXPECT_FALSE(a->Send(NodeId{9, 9}, msg).ok());
  EXPECT_EQ(a->stats().send_errors, 1u);

  b->Stop();
  EXPECT_FALSE(a->Send(NodeId{0, 1}, msg).ok());  // Stopped endpoint.
  EXPECT_EQ(a->stats().send_errors, 2u);
  // Like TCP, a frame counts as sent only once a receiver took it: the
  // two failed sends are errors, not traffic.
  EXPECT_EQ(a->stats().frames_sent, 1u);
  EXPECT_EQ(a->stats().bytes_sent, msg.ByteSize());
  a->Stop();
  a->Stop();  // Idempotent.
}

TcpPortMap MustMakePortMap(const std::vector<int>& group_sizes,
                           uint16_t base) {
  auto ports = MakeLocalPortMap(group_sizes, base);
  EXPECT_TRUE(ports.ok()) << ports.status().ToString();
  return *ports;
}

TEST(TcpTransportTest, LoopbackRoundTrip) {
  TcpPortMap ports = MustMakePortMap({2}, /*base=*/19321);
  TcpTransport a(NodeId{0, 0}, ports);
  TcpTransport b(NodeId{0, 1}, ports);
  Sink sink_a, sink_b;
  ASSERT_TRUE(a.Start(sink_a.fn()).ok());
  ASSERT_TRUE(b.Start(sink_b.fn()).ok());

  // Both directions, including a large frame spanning multiple reads.
  Rng rng(3);
  auto big = MakeMessage(MessageType::kEntryTransfer, rng);
  auto small = FreezeQuery(1, 5);
  ASSERT_TRUE(a.Send(NodeId{0, 1}, *big).ok());
  ASSERT_TRUE(a.Send(NodeId{0, 1}, small).ok());
  ASSERT_TRUE(b.Send(NodeId{0, 0}, small).ok());

  ASSERT_TRUE(sink_b.WaitForCount(2));
  ASSERT_TRUE(sink_a.WaitForCount(1));
  EXPECT_EQ(sink_b.frames[0].msg->message_type(),
            MessageType::kEntryTransfer);
  EXPECT_EQ(sink_b.frames[1].msg->message_type(),
            MessageType::kFreezeQuery);
  EXPECT_EQ(sink_a.frames[0].src, (NodeId{0, 1}));

  EXPECT_EQ(a.stats().frames_sent, 2u);
  EXPECT_EQ(b.stats().frames_received, 2u);
  a.Stop();
  b.Stop();
}

TEST(TcpTransportTest, SendToUnmappedNodeFails) {
  TcpPortMap ports = MustMakePortMap({1}, /*base=*/19331);
  TcpTransport a(NodeId{0, 0}, ports);
  Sink sink;
  ASSERT_TRUE(a.Start(sink.fn()).ok());
  auto msg = FreezeQuery(0, 0);
  EXPECT_FALSE(a.Send(NodeId{5, 5}, msg).ok());
  EXPECT_EQ(a.stats().send_errors, 1u);
  a.Stop();
}

TEST(TcpTransportTest, PortMapRejectsOverflowPast65535) {
  // 65534 + 2 nodes = ports {65534, 65535}: the last legal assignment.
  EXPECT_TRUE(MakeLocalPortMap({2}, 65534).ok());
  // One node more would need port 65536.
  auto overflow = MakeLocalPortMap({3}, 65534);
  ASSERT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.status().IsInvalidArgument());
  // The old uint16_t arithmetic silently wrapped a large cluster onto
  // low ports; now it is refused outright.
  EXPECT_FALSE(MakeLocalPortMap({200, 200}, 65400).ok());
  EXPECT_FALSE(MakeLocalPortMap({-1}, 1000).ok());
  // Empty map is fine.
  EXPECT_TRUE(MakeLocalPortMap({}, 65535).ok());
}

TEST(TcpTransportTest, SendToDeadPeerNeverBlocks) {
  // Node {0,1} is mapped but never started: every send must enqueue (or
  // drop) and return immediately — the old transport dialed synchronously
  // with retries and blocked the caller for ~2 seconds.
  TcpPortMap ports = MustMakePortMap({2}, /*base=*/19441);
  TcpTransport a(NodeId{0, 0}, ports);
  Sink sink;
  ASSERT_TRUE(a.Start(sink.fn()).ok());

  auto msg = FreezeQuery(1, 1);
  for (int i = 0; i < 50; ++i) {
    auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(a.Send(NodeId{0, 1}, msg).ok());
    auto elapsed = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    // The 10ms liveness budget, with CI scheduling headroom.
    EXPECT_LT(elapsed, 100.0) << "send " << i << " blocked";
  }
  EXPECT_EQ(a.stats().frames_sent, 0u);  // Nothing reached a wire.
  a.Stop();
}

TEST(TcpTransportTest, BackpressureDropsWhenQueueFull) {
  TcpTransport::Options options;
  options.max_queue_frames = 4;
  TcpPortMap ports = MustMakePortMap({2}, /*base=*/19451);
  TcpTransport a(NodeId{0, 0}, ports, options);
  Sink sink;
  ASSERT_TRUE(a.Start(sink.fn()).ok());

  auto msg = FreezeQuery(1, 1);
  int dropped = 0;
  for (int i = 0; i < 20; ++i)
    if (!a.Send(NodeId{0, 1}, msg).ok()) ++dropped;
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(a.stats().dropped_backpressure, static_cast<uint64_t>(dropped));
  // Backpressure is not a send error; the counters are distinct.
  EXPECT_EQ(a.stats().send_errors, 0u);
  a.Stop();
}

TEST(TcpTransportTest, ReconnectsAfterPeerRestart) {
  TcpPortMap ports = MustMakePortMap({2}, /*base=*/19461);
  TcpTransport a(NodeId{0, 0}, ports);
  auto b = std::make_unique<TcpTransport>(NodeId{0, 1}, ports);
  Sink sink_a, sink_b1;
  ASSERT_TRUE(a.Start(sink_a.fn()).ok());
  ASSERT_TRUE(b->Start(sink_b1.fn()).ok());

  auto msg = FreezeQuery(7, 1);
  ASSERT_TRUE(a.Send(NodeId{0, 1}, msg).ok());
  ASSERT_TRUE(sink_b1.WaitForCount(1));

  // Kill the peer. Sends during the outage enqueue (or die with the
  // connection — TCP loss semantics) but never block the caller.
  b->Stop();
  b.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(a.Send(NodeId{0, 1}, msg).ok());

  // Restart on the same port. Fresh sends force the writer to discover
  // the dead connection, redial with backoff, and flow frames again —
  // that is the liveness contract (loss of in-flight frames is allowed;
  // the BFT layer owns retries).
  b = std::make_unique<TcpTransport>(NodeId{0, 1}, ports);
  Sink sink_b2;
  ASSERT_TRUE(b->Start(sink_b2.fn()).ok());
  bool delivered = false;
  for (int i = 0; i < 200 && !delivered; ++i) {
    ASSERT_TRUE(a.Send(NodeId{0, 1}, msg).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::lock_guard<std::mutex> lock(sink_b2.mu);
    delivered = !sink_b2.frames.empty();
  }
  EXPECT_TRUE(delivered) << "no frame flowed after peer restart";
  EXPECT_GE(a.stats().reconnects, 1u);
  a.Stop();
  b->Stop();
}

// ----------------------------------------------------- crc32 kernels

/// Property test for the crc32 kernel family (DESIGN.md §10): every fast
/// path — slice-by-8, PCLMULQDQ folding, ARMv8 CRC — must agree with the
/// byte-at-a-time scalar oracle on random buffers, lengths and running
/// states, including the sub-block sizes the hardware kernels delegate.
TEST(Crc32KernelTest, FastKernelsMatchScalarOracle) {
  Rng rng(0xC4C32);
  for (int trial = 0; trial < 500; ++trial) {
    // Cover the interesting length regimes: empty, sub-8-byte tails, the
    // 16/64-byte fold thresholds, and multi-block bulk.
    const size_t len = trial < 80 ? trial : rng.NextBelow(4096);
    Bytes buf(len);
    for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
    const uint32_t state = static_cast<uint32_t>(rng.NextU64());

    const uint32_t oracle =
        internal_crc32::UpdateScalarTable(state, buf.data(), len);
    EXPECT_EQ(internal_crc32::UpdateSlice8(state, buf.data(), len), oracle)
        << "slice8 diverged from scalar oracle at len " << len;
#if defined(__x86_64__)
    if (GetCpuFeatures().pclmul) {
      EXPECT_EQ(internal_crc32::UpdatePclmul(state, buf.data(), len), oracle)
          << "pclmul diverged from scalar oracle at len " << len;
    }
#endif
#if defined(__aarch64__)
    if (GetCpuFeatures().arm_crc32) {
      EXPECT_EQ(internal_crc32::UpdateArmv8(state, buf.data(), len), oracle)
          << "armv8 diverged from scalar oracle at len " << len;
    }
#endif
  }
}

/// The dispatched Update must be split-invariant: chopping one buffer
/// into arbitrary incremental Update calls lands on the same digest as
/// the scalar oracle one-shot, whatever kernel is active.
TEST(Crc32KernelTest, DispatchedIncrementalMatchesScalarOracle) {
  Rng rng(0xD15);
  for (int trial = 0; trial < 100; ++trial) {
    Bytes buf(1 + rng.NextBelow(2048));
    for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
    Crc32 crc;
    size_t pos = 0;
    while (pos < buf.size()) {
      const size_t take =
          std::min(buf.size() - pos, 1 + rng.NextBelow(130));
      crc.Update(buf.data() + pos, take);
      pos += take;
    }
    const uint32_t expected = ~internal_crc32::UpdateScalarTable(
        0xFFFFFFFFu, buf.data(), buf.size());
    EXPECT_EQ(crc.Finish(), expected);
  }
}

// ---------------------------------------------------- FrameReassembler

/// Splitting a frame stream at every possible boundary — one byte per
/// recv — must reassemble the exact frame sequence. This is the
/// adversarial-fragmentation contract of the rx ring (DESIGN.md §15).
TEST(FrameReassemblerTest, OneByteTrickleReassemblesEveryType) {
  Rng rng(21);
  Bytes stream;
  std::vector<MessageType> order;
  for (const MessageTypeInfo& info : MessageTypes()) {
    const MessageType type = info.type;
    auto msg = MakeMessage(type, rng);
    const Bytes wire = EncodeFrame(*msg, NodeId{1, 2});
    stream.insert(stream.end(), wire.begin(), wire.end());
    order.push_back(type);
  }

  FrameReassembler rx(/*initial_capacity=*/7);  // Force regrowth too.
  std::vector<Frame> frames;
  for (uint8_t byte : stream) {
    *rx.WritableData(1) = byte;
    rx.CommitWrite(1);
    ASSERT_TRUE(rx.Drain(&frames).ok());
  }
  ASSERT_EQ(frames.size(), order.size());
  for (size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(frames[i].msg->message_type(), order[i]) << "frame " << i;
  EXPECT_EQ(rx.PendingBytes(), 0u);
}

TEST(FrameReassemblerTest, RandomFragmentationFuzz) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes stream;
    size_t expected = 0;
    for (int i = 0; i < 40; ++i) {
      auto msg = MakeMessage(
          MessageTypes()[rng.NextBelow(MessageTypes().size())].type, rng);
      const Bytes wire = EncodeFrame(*msg, NodeId{0, 1});
      stream.insert(stream.end(), wire.begin(), wire.end());
      ++expected;
    }
    FrameReassembler rx;
    std::vector<Frame> frames;
    size_t pos = 0;
    while (pos < stream.size()) {
      const size_t take =
          std::min(stream.size() - pos, 1 + rng.NextBelow(977));
      std::memcpy(rx.WritableData(take), stream.data() + pos, take);
      rx.CommitWrite(take);
      pos += take;
      ASSERT_TRUE(rx.Drain(&frames).ok());
    }
    EXPECT_EQ(frames.size(), expected);
    EXPECT_EQ(rx.PendingBytes(), 0u);
  }
}

/// A corrupt frame mid-stream surfaces as Corruption, but the good frames
/// decoded before it are still handed out — the transport delivers them
/// before tearing the connection down.
TEST(FrameReassemblerTest, CorruptionAfterGoodFramesKeepsThePrefix) {
  Rng rng(41);
  auto msg = FreezeQuery(3, 9);
  Bytes stream;
  for (int i = 0; i < 2; ++i) {
    const Bytes wire = EncodeFrame(msg, NodeId{0, 0});
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  Bytes bad = EncodeFrame(msg, NodeId{0, 0});
  bad[0] ^= 0xFF;  // Break the magic: framing is unrecoverable.
  stream.insert(stream.end(), bad.begin(), bad.end());

  FrameReassembler rx;
  std::memcpy(rx.WritableData(stream.size()), stream.data(), stream.size());
  rx.CommitWrite(stream.size());
  std::vector<Frame> frames;
  const Status drained = rx.Drain(&frames);
  EXPECT_TRUE(drained.IsCorruption());
  EXPECT_EQ(frames.size(), 2u);
}

// ------------------------------------------- Batched TCP wire path

/// Floods of small frames exercise the scatter-gather writer's full-batch
/// and partial-batch resume paths; per-peer delivery order must survive
/// batching. Sequence numbers ride in max_seen. The flood is queued before
/// the receiver listens, so the writer meets all of it at once: sent to a
/// live connection, it batches only while this thread outruns the writer
/// thread, which a sanitizer build's slowdown can prevent.
TEST(TcpTransportTest, BatchedDeliveryPreservesPerPeerOrder) {
  TcpTransport::Options options;
  options.max_queue_frames = 8192;
  options.backoff_max_ms = 20;  // Redial soon once the receiver listens.
  TcpPortMap ports = MustMakePortMap({2}, /*base=*/19471);
  TcpTransport a(NodeId{0, 0}, ports, options);
  TcpTransport b(NodeId{0, 1}, ports, options);
  Sink sink_a, sink_b;
  ASSERT_TRUE(a.Start(sink_a.fn()).ok());

  constexpr uint64_t kCount = 3000;
  for (uint64_t i = 0; i < kCount; ++i)
    ASSERT_TRUE(a.Send(NodeId{0, 1}, FreezeQuery(1, i)).ok());
  ASSERT_TRUE(b.Start(sink_b.fn()).ok());
  ASSERT_TRUE(sink_b.WaitForCount(kCount));

  std::lock_guard<std::mutex> lock(sink_b.mu);
  for (uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(BodyOf<Freeze>(*sink_b.frames[i].msg).max_seen, i)
        << "reordered or lost at " << i;
  }
  // The whole flood must have moved in far fewer syscalls than frames on
  // both sides — the point of batching.
  EXPECT_LT(a.stats().send_syscalls, kCount / 2);
  EXPECT_LT(b.stats().recv_syscalls, kCount / 2);
  a.Stop();
  b.Stop();
}

/// Interleaves frames far larger than the socket buffer with small ones,
/// forcing sendmsg to accept partial batches that end mid-frame; the
/// write-offset resume must keep the stream byte-exact (every frame CRC
/// checks on the far side) and in order.
TEST(TcpTransportTest, PartialWriteResumeAcrossBatchBoundaries) {
  TcpTransport::Options options;
  options.max_queue_frames = 256;
  options.max_queue_bytes = 256 * 1024 * 1024;
  TcpPortMap ports = MustMakePortMap({2}, /*base=*/19481);
  TcpTransport a(NodeId{0, 0}, ports, options);
  TcpTransport b(NodeId{0, 1}, ports, options);
  Sink sink_a, sink_b;
  ASSERT_TRUE(a.Start(sink_a.fn()).ok());
  ASSERT_TRUE(b.Start(sink_b.fn()).ok());

  // ~1MB chunk batches dwarf the loopback socket buffer.
  Rng rng(51);
  std::vector<Chunk> chunks(2);
  for (Chunk& c : chunks) {
    c.chunk_id = static_cast<uint32_t>(rng.NextU64());
    c.data.resize(512 * 1024);
    for (auto& byte : c.data) byte = static_cast<uint8_t>(rng.NextU64());
    c.proof.index = 0;
    c.proof.leaf_count = 2;
  }
  constexpr int kRounds = 8;
  for (int i = 0; i < kRounds; ++i) {
    Message<ChunkBatch> big(MessageType::kChunkBatch,
                            {1, static_cast<uint64_t>(i), RandDigest(rng),
                             RandCert(rng), chunks});
    auto small = FreezeQuery(1, static_cast<uint64_t>(i));
    while (!a.Send(NodeId{0, 1}, big).ok()) std::this_thread::yield();
    while (!a.Send(NodeId{0, 1}, small).ok()) std::this_thread::yield();
  }
  ASSERT_TRUE(sink_b.WaitForCount(2 * kRounds));

  std::lock_guard<std::mutex> lock(sink_b.mu);
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_EQ(sink_b.frames[2 * static_cast<size_t>(i)].msg->message_type(),
              MessageType::kChunkBatch);
    ASSERT_EQ(
        sink_b.frames[2 * static_cast<size_t>(i) + 1].msg->message_type(),
        MessageType::kFreezeQuery);
  }
  EXPECT_EQ(b.stats().decode_errors, 0u);
  a.Stop();
  b.Stop();
}

}  // namespace
}  // namespace massbft
