#ifndef MASSBFT_PROTO_ENTRY_H_
#define MASSBFT_PROTO_ENTRY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/result.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "sim/time.h"

namespace massbft {

/// A client transaction as carried inside a log entry. `payload` is the
/// workload-encoded operation (YCSB/SmallBank/TPC-C, see workload/); its
/// length matches the paper's reported average transaction sizes.
struct Transaction {
  uint64_t id = 0;
  /// Issuing client (for reply routing) and its group.
  uint32_t client = 0;
  /// Client submit time; carried for end-to-end latency measurement.
  SimTime submit_time = 0;
  Bytes payload;

  /// `w` is a BinaryWriter, or a ByteCounter to size the encoding.
  template <class Writer>
  void EncodeTo(Writer* w) const {
    w->PutU64(id);
    w->PutU32(client);
    w->PutU64(static_cast<uint64_t>(submit_time));
    w->PutBytes(payload);
  }
  [[nodiscard]] static Result<Transaction> DecodeFrom(BinaryReader* r);

  friend bool operator==(const Transaction&, const Transaction&) = default;
};

/// A log entry (block): a batch of transactions proposed by group `gid`
/// with group-local sequence number `seq` (paper notation e_{gid,seq}).
/// Immutable after construction; shared by pointer across the simulation.
///
/// An entry holds only its canonical bytes, its transaction count and the
/// memoized digest: every replica holds each entry it replicates until it
/// executes it (a leader for good), so a parsed copy of the transactions
/// would store every payload twice.
/// Executors parse the batch when they execute it (DecodeTxns).
class Entry {
 public:
  Entry(uint16_t gid, uint64_t seq, const std::vector<Transaction>& txns);

  uint16_t gid() const { return gid_; }
  uint64_t seq() const { return seq_; }
  int num_txns() const { return num_txns_; }

  /// Parses the transactions out of the canonical bytes, in batch order.
  [[nodiscard]] std::vector<Transaction> DecodeTxns() const;

  /// Canonical serialized form; chunks are carved from these bytes.
  const Bytes& Encoded() const { return encoded_; }
  size_t ByteSize() const { return encoded_.size(); }

  /// SHA-256 of the canonical encoding — the value certificates sign.
  /// Memoized on first use, so the N nodes sharing this immutable entry
  /// hash it once instead of once per verifier. (Lazy init is not
  /// thread-safe; the simulation is single-threaded.)
  const Digest& digest() const {
    if (!digest_valid_) {
      digest_ = Sha256::Hash(encoded_);
      digest_valid_ = true;
    }
    return digest_;
  }

  /// Validates `encoded` as an entry (header, every transaction, no
  /// trailing bytes) and adopts it as the canonical encoding.
  [[nodiscard]] static Result<std::shared_ptr<const Entry>> Decode(
      Bytes encoded);

 private:
  Entry(uint16_t gid, uint64_t seq, int num_txns, Bytes encoded);

  uint16_t gid_;
  uint64_t seq_;
  int num_txns_;
  Bytes encoded_;
  mutable Digest digest_{};
  mutable bool digest_valid_ = false;
};

using EntryPtr = std::shared_ptr<const Entry>;

/// PBFT certificate: >= 2f+1 signatures from one group over an entry (or
/// decision) digest. Protects entries from tampering during global
/// replication (paper Section II-A).
///
/// Compact representation (wire v3, DESIGN.md §17): signers are recorded
/// as an ordered participation bitmap over node indices of group `gid`
/// (bit i = node {gid, i} signed), and the signatures ride in a parallel
/// array sorted by index. Versus the old explicit (NodeId, Signature)
/// pair list this drops the per-signature 4-byte id to ~1/8 byte, makes
/// duplicate signers unrepresentable, and makes foreign-group signers
/// unencodable — two whole classes of malformed certificate gone by
/// construction.
class Certificate {
 public:
  uint16_t gid = 0;
  Digest digest{};

  /// Records node {gid, index}'s signature. Idempotent: re-adding an
  /// index keeps the first signature (duplicates can't inflate a quorum).
  void AddSignature(uint16_t index, const Signature& sig);

  [[nodiscard]] size_t NumSignatures() const { return sigs_.size(); }
  [[nodiscard]] bool HasSigner(uint16_t index) const;
  /// Signer indices in ascending order.
  [[nodiscard]] std::vector<uint16_t> Signers() const;
  /// Signatures in ascending signer-index order, parallel to Signers().
  const std::vector<Signature>& Signatures() const { return sigs_; }

  /// Canonical encoding: gid, digest, u16 bitmap length, bitmap, then the
  /// signatures. `w` is a BinaryWriter, or a ByteCounter to size it.
  template <class Writer>
  void EncodeTo(Writer* w) const {
    w->PutU16(gid);
    w->PutRaw(digest.data(), digest.size());
    w->PutU16(static_cast<uint16_t>(bitmap_.size()));
    w->PutRaw(bitmap_.data(), bitmap_.size());
    for (const Signature& sig : sigs_) w->PutRaw(sig.data(), sig.size());
  }
  [[nodiscard]] static Result<Certificate> DecodeFrom(BinaryReader* r);

  /// True if the certificate carries at least `quorum` valid signatures
  /// over `digest`. The hot path batch-verifies all signatures in one
  /// pass (one multi-scalar multiplication under ed25519); only if that
  /// combined check fails does it fall back to per-signature verification
  /// to count the valid ones — and, when `forgers` is non-null, to name
  /// the indices whose signatures failed.
  [[nodiscard]] bool Verify(const KeyRegistry& registry, int quorum,
                            std::vector<uint16_t>* forgers = nullptr) const;

  friend bool operator==(const Certificate&, const Certificate&) = default;

 private:
  /// Participation bitmap, little-endian within each byte (bit i of byte
  /// b = node index 8*b + i). Canonical: never has a trailing zero byte.
  Bytes bitmap_;
  std::vector<Signature> sigs_;
};

}  // namespace massbft

#endif  // MASSBFT_PROTO_ENTRY_H_
