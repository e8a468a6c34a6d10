#ifndef MASSBFT_REPLICATION_REBUILDER_H_
#define MASSBFT_REPLICATION_REBUILDER_H_

#include <cstdint>
#include <functional>
#include <map>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "obs/telemetry.h"
#include "proto/entry.h"
#include "proto/messages.h"

namespace massbft {

/// Optimistic entry rebuild (paper Section IV-C), one instance per
/// in-flight entry e_{gid,seq} on a receiver node.
///
/// Incoming chunks are verified against their Merkle proofs and grouped
/// into buckets by Merkle root: chunks sharing a root were provably encoded
/// from one candidate entry, so tampered chunks can never pollute a correct
/// bucket. Once a bucket holds n_data distinct chunk ids the entry is
/// rebuilt and validated against the PBFT certificate; a failed validation
/// proves every chunk in that bucket fake. The fake *root* is remembered
/// (and the bucket's memory freed) so refills of it are refused in O(1)
/// without re-verification or another rebuild — DoS-by-refill defense.
/// The ban is per-root, never global by chunk id: a Byzantine bucket
/// covering ids 0..n_data-1 must not block the genuine bucket's chunks
/// with the same ids. Filling a fresh fake bucket costs the attacker
/// n_data valid Merkle proofs under a new root per rebuild attempt — the
/// cost asymmetry favors the defender.
class EntryRebuilder {
 public:
  struct Config {
    int n_total = 0;
    int n_data = 0;
    /// Validates the certificate carried with the chunks and binds it to
    /// the rebuilt entry: typically, the entry is the slot's own and
    /// cert.digest == entry.digest() && cert.Verify(registry, 2f+1 of the
    /// sender group). A bucket that decodes to another slot's entry fails.
    std::function<bool(const Certificate& cert, const Entry& entry)> validate;
    /// Observability sink (optional): chunk outcomes land in the registry
    /// counters "rebuild/chunks_{accepted,duplicate,rejected}",
    /// "rebuild/entries_rebuilt" and "rebuild/fake_buckets".
    obs::Telemetry* telemetry = nullptr;
  };

  /// Outcome of feeding one chunk.
  enum class AddResult {
    kPending,      // Stored; not enough chunks yet.
    kDuplicate,    // Already had this chunk (or its root is proven fake).
    kRejected,     // Bad Merkle proof / id out of range.
    kRebuilt,      // Entry reconstructed and validated; see entry().
    kBucketFake,   // Bucket filled but failed validation; root banned.
  };

  explicit EntryRebuilder(Config config);

  /// Feeds one chunk (already transported). `root` is the Merkle root the
  /// sender committed to; the proof must bind (chunk_id, data) to it.
  AddResult AddChunk(const Digest& root, uint32_t chunk_id, const Bytes& data,
                     const MerkleProof& proof, const Certificate& cert);

  bool complete() const { return entry_ != nullptr; }
  const EntryPtr& entry() const { return entry_; }

  /// Total chunks discarded inside proven-fake buckets (per-root scope).
  int banned_count() const { return static_cast<int>(banned_total_); }
  int bucket_count() const { return static_cast<int>(buckets_.size()); }

 private:
  struct Bucket {
    std::map<uint32_t, std::pair<Bytes, MerkleProof>> chunks;
    bool proven_fake = false;
  };

  AddResult TryRebuild(Bucket& bucket, const Certificate& cert);
  /// Reports `result` into the registry counters (no-op when unwired).
  AddResult Count(AddResult result);

  Config config_;
  std::map<Digest, Bucket> buckets_;
  size_t banned_total_ = 0;
  EntryPtr entry_;
  // Pre-resolved observability handles (null when not wired).
  obs::Counter* accepted_counter_ = nullptr;
  obs::Counter* duplicate_counter_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* rebuilt_counter_ = nullptr;
  obs::Counter* fake_bucket_counter_ = nullptr;
};

}  // namespace massbft

#endif  // MASSBFT_REPLICATION_REBUILDER_H_
