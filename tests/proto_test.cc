#include <gtest/gtest.h>

#include "crypto/signature.h"
#include "proto/entry.h"
#include "proto/messages.h"

namespace massbft {
namespace {

Transaction MakeTxn(uint64_t id, size_t payload_size = 100) {
  Transaction txn;
  txn.id = id;
  txn.client = static_cast<uint32_t>(id * 7);
  txn.submit_time = static_cast<SimTime>(id * 1000);
  txn.payload.assign(payload_size, static_cast<uint8_t>(id));
  return txn;
}

TEST(TransactionTest, EncodeDecodeRoundTrip) {
  Transaction txn = MakeTxn(42, 201);
  BinaryWriter w;
  txn.EncodeTo(&w);
  BinaryReader r(w.buffer());
  auto decoded = Transaction::DecodeFrom(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, txn);
}

TEST(EntryTest, EncodeDecodeRoundTrip) {
  std::vector<Transaction> txns = {MakeTxn(1), MakeTxn(2), MakeTxn(3)};
  Entry entry(2, 17, txns);
  auto decoded = Entry::Decode(entry.Encoded());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)->gid(), 2);
  EXPECT_EQ((*decoded)->seq(), 17u);
  EXPECT_EQ((*decoded)->DecodeTxns(), txns);
  EXPECT_EQ((*decoded)->digest(), entry.digest());
}

TEST(EntryTest, DecodedCopyAgreesWithBuiltEntry) {
  // An entry keeps only its bytes: the one built from transactions and the
  // one decoded from its encoding must be indistinguishable.
  std::vector<Transaction> txns = {MakeTxn(4, 0), MakeTxn(5, 300),
                                   MakeTxn(6, 1)};
  Entry built(1, 9, txns);
  auto decoded = Entry::Decode(built.Encoded());
  ASSERT_TRUE(decoded.ok());
  const Entry& copy = **decoded;
  EXPECT_EQ(copy.Encoded(), built.Encoded());
  EXPECT_EQ(copy.digest(), built.digest());
  EXPECT_EQ(copy.num_txns(), 3);
  EXPECT_EQ(built.num_txns(), 3);
  EXPECT_EQ(built.DecodeTxns(), txns);
  EXPECT_EQ(copy.DecodeTxns(), txns);
}

TEST(EntryTest, EmptyEntryRoundTrips) {
  Entry entry(0, 0, {});
  auto decoded = Entry::Decode(entry.Encoded());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)->num_txns(), 0);
}

TEST(EntryTest, DigestBindsContent) {
  Entry a(0, 1, {MakeTxn(1)});
  Entry b(0, 1, {MakeTxn(2)});
  Entry c(0, 2, {MakeTxn(1)});
  Entry d(1, 1, {MakeTxn(1)});
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
  EXPECT_NE(a.digest(), d.digest());
}

TEST(EntryTest, TamperedBytesRejectedOrDifferentDigest) {
  Entry entry(1, 5, {MakeTxn(9)});
  Bytes tampered = entry.Encoded();
  tampered[tampered.size() / 2] ^= 0xFF;
  auto decoded = Entry::Decode(tampered);
  // Either structurally invalid, or decodes to a different digest — never
  // silently equal.
  if (decoded.ok()) {
    EXPECT_NE((*decoded)->digest(), entry.digest());
  }
}

TEST(EntryTest, TruncatedBytesRejected) {
  Entry entry(1, 5, {MakeTxn(9), MakeTxn(10)});
  Bytes truncated(entry.Encoded().begin(), entry.Encoded().end() - 5);
  EXPECT_FALSE(Entry::Decode(truncated).ok());
}

TEST(EntryTest, MalformedMidEntryTransactionRejected) {
  // Transaction 2 of 3 has a non-minimal length prefix; the entry's byte
  // count still adds up, so only checking every transaction finds it.
  BinaryWriter w;
  w.PutU16(1);
  w.PutU64(5);
  w.PutVarint(3);
  MakeTxn(1).EncodeTo(&w);
  w.PutU64(2);
  w.PutU32(14);
  w.PutU64(2000);
  w.PutU8(0x80);  // Length 0, written in two bytes.
  w.PutU8(0x00);
  MakeTxn(3).EncodeTo(&w);
  EXPECT_FALSE(Entry::Decode(w.Release()).ok());
}

TEST(EntryTest, TrailingBytesRejected) {
  Entry entry(1, 5, {MakeTxn(9)});
  Bytes padded = entry.Encoded();
  padded.push_back(0);
  EXPECT_FALSE(Entry::Decode(padded).ok());
}

TEST(EntryTest, ImplausibleCountRejected) {
  // A count larger than the buffer fails before any transaction is read;
  // one more than the entry holds fails at the missing transaction.
  for (uint64_t count : {uint64_t{1} << 40, uint64_t{2}}) {
    BinaryWriter w;
    w.PutU16(0);
    w.PutU64(1);
    w.PutVarint(count);
    MakeTxn(1).EncodeTo(&w);
    EXPECT_FALSE(Entry::Decode(w.Release()).ok()) << count;
  }
}

TEST(EntryTest, ByteSizeIsEncodedSize) {
  Entry entry(0, 3, {MakeTxn(1, 201), MakeTxn(2, 201)});
  EXPECT_EQ(entry.ByteSize(), entry.Encoded().size());
  // Two 201-byte payloads plus per-txn headers plus the entry header.
  EXPECT_GT(entry.ByteSize(), 2 * 201u);
  EXPECT_LT(entry.ByteSize(), 2 * 201u + 100u);
}

// ---------------------------------------------------------- Certificate

class CertificateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 7; ++i)
      registry_.RegisterNode(NodeId{1, static_cast<uint16_t>(i)});
  }

  Certificate MakeCert(const Digest& digest, int num_sigs) {
    Certificate cert;
    cert.gid = 1;
    cert.digest = digest;
    Bytes payload(digest.begin(), digest.end());
    for (int i = 0; i < num_sigs; ++i) {
      NodeId node{1, static_cast<uint16_t>(i)};
      cert.AddSignature(node.index, registry_.Sign(node, payload));
    }
    return cert;
  }

  KeyRegistry registry_;
  Digest digest_ = Sha256::Hash("entry payload");
};

TEST_F(CertificateTest, QuorumVerifies) {
  Certificate cert = MakeCert(digest_, 5);
  EXPECT_TRUE(cert.Verify(registry_, 5));
  EXPECT_TRUE(cert.Verify(registry_, 3));
}

TEST_F(CertificateTest, InsufficientSignaturesFail) {
  Certificate cert = MakeCert(digest_, 4);
  EXPECT_FALSE(cert.Verify(registry_, 5));
}

TEST_F(CertificateTest, DuplicateSignersNotDoubleCounted) {
  // The bitmap makes duplicate signers unrepresentable: re-adding an
  // index is a no-op, so a 3-signer cert can never inflate to a 5-quorum.
  Certificate cert = MakeCert(digest_, 3);
  Bytes payload(digest_.begin(), digest_.end());
  cert.AddSignature(0, registry_.Sign(NodeId{1, 0}, payload));
  cert.AddSignature(0, registry_.Sign(NodeId{1, 0}, payload));
  EXPECT_EQ(cert.NumSignatures(), 3u);
  EXPECT_FALSE(cert.Verify(registry_, 5));
}

TEST_F(CertificateTest, UnregisteredSignerDoesNotCount) {
  // Index 200 exists in no registry; its "signature" must not count
  // toward the quorum (and the batch path must fall back, not crash).
  Certificate cert = MakeCert(digest_, 4);
  cert.AddSignature(200, Signature{});
  EXPECT_EQ(cert.NumSignatures(), 5u);
  EXPECT_FALSE(cert.Verify(registry_, 5));
  EXPECT_TRUE(cert.Verify(registry_, 4));  // The 4 real ones still count.
}

TEST_F(CertificateTest, ForgedSignatureIsNamed) {
  Certificate cert = MakeCert(digest_, 5);
  Bytes payload(digest_.begin(), digest_.end());
  // Replace node 2's signature with node 6's (valid key, wrong signer).
  Certificate forged;
  forged.gid = cert.gid;
  forged.digest = cert.digest;
  for (uint16_t i = 0; i < 5; ++i) {
    NodeId signer{1, i == 2 ? static_cast<uint16_t>(6) : i};
    forged.AddSignature(i, registry_.Sign(signer, payload));
  }
  std::vector<uint16_t> forgers;
  EXPECT_TRUE(forged.Verify(registry_, 4, &forgers));
  EXPECT_EQ(forgers, std::vector<uint16_t>{2});
}

TEST_F(CertificateTest, WrongDigestSignaturesFail) {
  Certificate cert = MakeCert(digest_, 5);
  cert.digest = Sha256::Hash("different payload");
  EXPECT_FALSE(cert.Verify(registry_, 5));
}

TEST_F(CertificateTest, EncodeDecodeRoundTrip) {
  Certificate cert = MakeCert(digest_, 5);
  BinaryWriter w;
  cert.EncodeTo(&w);
  EXPECT_EQ(w.size(), field::Size(cert));
  BinaryReader r(w.buffer());
  auto decoded = Certificate::DecodeFrom(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->gid, cert.gid);
  EXPECT_EQ(decoded->digest, cert.digest);
  ASSERT_EQ(decoded->NumSignatures(), cert.NumSignatures());
  EXPECT_EQ(*decoded, cert);
  EXPECT_TRUE(decoded->Verify(registry_, 5));
}

TEST_F(CertificateTest, CompactEncodingShrinksWireSize) {
  // 5 signers over a 7-node group: one bitmap byte + 5 * 64 sig bytes
  // versus the old 5 * (4 + 64) explicit pair list.
  Certificate cert = MakeCert(digest_, 5);
  BinaryWriter w;
  cert.EncodeTo(&w);
  EXPECT_EQ(w.size(), 2u + 32u + 2u + 1u + 5u * sizeof(Signature));
  EXPECT_LT(w.size(), 2u + 32u + 2u + 5u * (4u + 64u));
}

TEST_F(CertificateTest, NonCanonicalBitmapRejected) {
  Certificate cert = MakeCert(digest_, 2);
  BinaryWriter w;
  cert.EncodeTo(&w);
  // Splice a trailing zero bitmap byte in: same signer set, longer
  // encoding. Layout: gid(2) digest(32) bitmap_len(2) bitmap sigs.
  Bytes bytes = w.buffer();
  ASSERT_EQ(bytes[34], 1);  // bitmap_len lo byte
  bytes[34] = 2;
  bytes.insert(bytes.begin() + 37, 0);  // after the original bitmap byte
  BinaryReader r(bytes);
  EXPECT_FALSE(Certificate::DecodeFrom(&r).ok());
}

// ---------------------------------------------------------- Message sizes

// ByteSize() must equal frame overhead plus the real encoded body (plus
// the wire trace context for entry-carrying types): the body's field list
// is the single source of truth for link accounting.
size_t EncodedSize(const ProtocolMessage& msg) {
  BinaryWriter w;
  msg.EncodeBodyTo(&w);
  return kFrameOverheadBytes +
         (msg.info().carries_trace ? kTraceContextBytes : 0) + w.size();
}

// A certificate with `n` signers from one group: gid, digest, bitmap
// length, one bitmap byte, the signatures.
size_t CertBytes(size_t n) { return 2 + 32 + 2 + 1 + n * sizeof(Signature); }

TEST(MessageSizeTest, EnvelopeAddedToEveryMessage) {
  // Empty body: the envelope alone.
  Message<GroupHeartbeat> heartbeat(MessageType::kGroupHeartbeat, {});
  EXPECT_EQ(heartbeat.ByteSize(), kFrameOverheadBytes);
  EXPECT_EQ(heartbeat.ByteSize(), EncodedSize(heartbeat));
  Message<Freeze> query(MessageType::kFreezeQuery, {1, 100});
  EXPECT_EQ(query.ByteSize(), kFrameOverheadBytes + 10);
  EXPECT_EQ(query.ByteSize(), EncodedSize(query));
}

TEST(MessageSizeTest, EntryTransferCarriesEntryAndCert) {
  auto entry = std::make_shared<const Entry>(
      0, 1, std::vector<Transaction>{MakeTxn(1, 201)});
  Certificate cert;
  for (uint16_t i = 0; i < 5; ++i) cert.AddSignature(i, Signature{});
  Message<CertifiedEntry> msg(MessageType::kEntryTransfer, {entry, cert});
  // The entry rides as a length-prefixed blob of its canonical encoding;
  // entry-carrying frames also attach the wire trace context.
  EXPECT_EQ(msg.ByteSize(), kFrameOverheadBytes + kTraceContextBytes +
                                VarintSize(entry->ByteSize()) +
                                entry->ByteSize() + CertBytes(5));
  EXPECT_EQ(msg.ByteSize(), EncodedSize(msg));
}

TEST(MessageSizeTest, ChunkBatchAccountsChunksProofsAndCert) {
  Chunk chunk;
  chunk.chunk_id = 3;
  chunk.data.assign(1000, 7);
  chunk.proof.index = 3;
  chunk.proof.leaf_count = 28;
  chunk.proof.path.resize(5);
  Certificate cert;
  for (uint16_t i = 0; i < 5; ++i) cert.AddSignature(i, Signature{});
  Message<ChunkBatch> msg(MessageType::kChunkBatch,
                          {0, 1, Digest{}, cert, {chunk}});
  // Chunk: id, 2-byte varint length, data, then the proof's index, leaf
  // count, path length and path.
  const size_t chunk_bytes = 4 + 2 + 1000 + (4 + 4 + 2 + 5 * 32);
  size_t expected = kFrameOverheadBytes + kTraceContextBytes + 2 + 8 + 32 +
                    CertBytes(5) + /*chunk count varint*/ 1 + chunk_bytes;
  EXPECT_EQ(msg.ByteSize(), expected);
  EXPECT_EQ(msg.ByteSize(), EncodedSize(msg));
}

TEST(MessageSizeTest, SignatureWireSizeMatchesEd25519) {
  // The substituted scheme must not change message sizes (DESIGN.md §2).
  Message<PbftVote> vote(MessageType::kPrepare, {0, Digest{}, Signature{}});
  EXPECT_EQ(vote.ByteSize(), kFrameOverheadBytes + 8 + 32 + 64);
  EXPECT_EQ(vote.ByteSize(), EncodedSize(vote));
}

}  // namespace
}  // namespace massbft
