#include "proto/entry.h"

#include <bit>
#include <utility>

#include "common/logging.h"

namespace massbft {

namespace {

/// Reads one transaction into `txn`, reusing its payload buffer.
Status ReadTxn(BinaryReader* r, Transaction* txn) {
  MASSBFT_RETURN_IF_ERROR(r->GetU64(&txn->id));
  MASSBFT_RETURN_IF_ERROR(r->GetU32(&txn->client));
  MASSBFT_RETURN_IF_ERROR(r->GetI64(&txn->submit_time));
  return r->GetBytes(&txn->payload);
}

/// An entry's header: gid, seq, then the transaction count.
Status ReadHeader(BinaryReader* r, uint16_t* gid, uint64_t* seq,
                  uint64_t* count) {
  MASSBFT_RETURN_IF_ERROR(r->GetU16(gid));
  MASSBFT_RETURN_IF_ERROR(r->GetU64(seq));
  return r->GetVarint(count);
}

template <class Writer>
void WriteEntry(Writer* w, uint16_t gid, uint64_t seq,
                const std::vector<Transaction>& txns) {
  w->PutU16(gid);
  w->PutU64(seq);
  w->PutVarint(txns.size());
  for (const Transaction& txn : txns) txn.EncodeTo(w);
}

}  // namespace

Result<Transaction> Transaction::DecodeFrom(BinaryReader* r) {
  Transaction txn;
  MASSBFT_RETURN_IF_ERROR(ReadTxn(r, &txn));
  return txn;
}

Entry::Entry(uint16_t gid, uint64_t seq, const std::vector<Transaction>& txns)
    : gid_(gid), seq_(seq), num_txns_(static_cast<int>(txns.size())) {
  // Sized exactly: the entry keeps this buffer for as long as it lives.
  ByteCounter size;
  WriteEntry(&size, gid_, seq_, txns);
  BinaryWriter w(size.size());
  WriteEntry(&w, gid_, seq_, txns);
  encoded_ = w.Release();
}

Entry::Entry(uint16_t gid, uint64_t seq, int num_txns, Bytes encoded)
    : gid_(gid), seq_(seq), num_txns_(num_txns), encoded_(std::move(encoded)) {}

std::vector<Transaction> Entry::DecodeTxns() const {
  // Decode (or the constructor) already proved these bytes parse.
  BinaryReader r(encoded_);
  uint16_t gid = 0;
  uint64_t seq = 0;
  uint64_t count = 0;
  MASSBFT_CHECK(ReadHeader(&r, &gid, &seq, &count).ok());
  std::vector<Transaction> txns(count);
  for (Transaction& txn : txns) MASSBFT_CHECK(ReadTxn(&r, &txn).ok());
  return txns;
}

Result<EntryPtr> Entry::Decode(Bytes encoded) {
  BinaryReader r(encoded);
  uint16_t gid = 0;
  uint64_t seq = 0;
  uint64_t count = 0;
  MASSBFT_RETURN_IF_ERROR(ReadHeader(&r, &gid, &seq, &count));
  if (count > encoded.size())  // Cheap sanity bound before parsing.
    return Status::Corruption("implausible transaction count");
  // Every transaction must parse, but none is kept: one scratch
  // transaction takes each in turn.
  Transaction txn;
  for (uint64_t i = 0; i < count; ++i)
    MASSBFT_RETURN_IF_ERROR(ReadTxn(&r, &txn));
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after entry");
  // Adopt the validated wire bytes as the canonical encoding; the writer
  // side always emits canonical varints, so re-encoding would reproduce
  // `encoded` byte for byte.
  return EntryPtr(
      new Entry(gid, seq, static_cast<int>(count), std::move(encoded)));
}

void Certificate::AddSignature(uint16_t index, const Signature& sig) {
  if (HasSigner(index)) return;
  const size_t byte = index / 8;
  if (byte >= bitmap_.size()) bitmap_.resize(byte + 1, 0);
  bitmap_[byte] |= static_cast<uint8_t>(1u << (index % 8));
  // Insert at the signature's rank: the number of set bits below `index`.
  size_t rank = 0;
  for (size_t b = 0; b < byte; ++b) rank += std::popcount(bitmap_[b]);
  rank += std::popcount(
      static_cast<uint8_t>(bitmap_[byte] & ((1u << (index % 8)) - 1)));
  sigs_.insert(sigs_.begin() + static_cast<ptrdiff_t>(rank), sig);
}

bool Certificate::HasSigner(uint16_t index) const {
  const size_t byte = index / 8;
  return byte < bitmap_.size() &&
         (bitmap_[byte] & (1u << (index % 8))) != 0;
}

std::vector<uint16_t> Certificate::Signers() const {
  std::vector<uint16_t> out;
  out.reserve(sigs_.size());
  for (size_t b = 0; b < bitmap_.size(); ++b)
    for (int bit = 0; bit < 8; ++bit)
      if (bitmap_[b] & (1u << bit))
        out.push_back(static_cast<uint16_t>(8 * b + bit));
  return out;
}

Result<Certificate> Certificate::DecodeFrom(BinaryReader* r) {
  Certificate cert;
  MASSBFT_RETURN_IF_ERROR(r->GetU16(&cert.gid));
  MASSBFT_RETURN_IF_ERROR(r->GetRaw(cert.digest.data(), cert.digest.size()));
  uint16_t bitmap_len = 0;
  MASSBFT_RETURN_IF_ERROR(r->GetU16(&bitmap_len));
  // Node indices are 16-bit, so the bitmap never exceeds 2^16/8 bytes.
  if (bitmap_len > 8192) return Status::Corruption("implausible cert bitmap");
  cert.bitmap_.resize(bitmap_len);
  MASSBFT_RETURN_IF_ERROR(r->GetRaw(cert.bitmap_.data(), bitmap_len));
  // Canonicality: one bitmap per signer set. Trailing zero bytes would
  // let the same certificate have multiple encodings.
  if (bitmap_len > 0 && cert.bitmap_.back() == 0)
    return Status::Corruption("non-canonical cert bitmap");
  size_t count = 0;
  for (uint8_t b : cert.bitmap_) count += std::popcount(b);
  cert.sigs_.resize(count);
  for (Signature& sig : cert.sigs_)
    MASSBFT_RETURN_IF_ERROR(r->GetRaw(sig.data(), sig.size()));
  return cert;
}

bool Certificate::Verify(const KeyRegistry& registry, int quorum,
                         std::vector<uint16_t>* forgers) const {
  // Duplicate and foreign-group signers are unrepresentable in the bitmap
  // encoding, so every entry counts toward the quorum check exactly once.
  const std::vector<uint16_t> signers = Signers();
  std::vector<NodeId> nodes;
  nodes.reserve(signers.size());
  for (uint16_t index : signers) nodes.push_back(NodeId{gid, index});
  std::vector<const Signature*> sig_ptrs;
  sig_ptrs.reserve(sigs_.size());
  for (const Signature& sig : sigs_) sig_ptrs.push_back(&sig);

  if (registry.VerifyBatch(nodes, digest.data(), digest.size(), sig_ptrs))
    return static_cast<int>(sigs_.size()) >= quorum;

  // Combined check failed (or a signer is unregistered): fall back to
  // scalar verification to count the valid signatures and name the bad.
  int valid = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (registry.Verify(nodes[i], digest.data(), digest.size(), sigs_[i])) {
      ++valid;
    } else if (forgers != nullptr) {
      forgers->push_back(signers[i]);
    }
  }
  return valid >= quorum;
}

}  // namespace massbft
