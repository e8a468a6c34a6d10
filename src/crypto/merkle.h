#ifndef MASSBFT_CRYPTO_MERKLE_H_
#define MASSBFT_CRYPTO_MERKLE_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/result.h"
#include "common/status.h"
#include "crypto/sha256.h"

namespace massbft {

/// Sibling-path Merkle proof for one leaf. `path[k]` is the sibling hash at
/// level k (level 0 = leaves); `index` locates the leaf so verifiers know the
/// left/right orientation at each level.
struct MerkleProof {
  uint32_t index = 0;
  uint32_t leaf_count = 0;
  std::vector<Digest> path;

  /// Wire codec: u32 index, u32 leaf_count, u16 path length, raw digests.
  /// `w` is a BinaryWriter, or a ByteCounter to size the encoding.
  template <class Writer>
  void EncodeTo(Writer* w) const {
    w->PutU32(index);
    w->PutU32(leaf_count);
    w->PutU16(static_cast<uint16_t>(path.size()));
    for (const Digest& d : path) w->PutRaw(d.data(), d.size());
  }
  [[nodiscard]] static Result<MerkleProof> DecodeFrom(BinaryReader* r);
};

/// Binary Merkle tree over a list of data blocks (erasure-coded chunks in
/// MassBFT's optimistic entry rebuild, Section IV-C of the paper).
///
/// Odd nodes at any level are promoted (Bitcoin-style duplication is avoided
/// to prevent the classic CVE-2012-2459 duplicate-leaf ambiguity: the last
/// node is carried up unchanged instead).
class MerkleTree {
 public:
  /// Builds a tree over the given blocks. Blocks are hashed with SHA-256;
  /// interior nodes hash the concatenation of their children.
  /// Requires at least one block.
  [[nodiscard]] static Result<MerkleTree> Build(
      const std::vector<Bytes>& blocks);

  /// Builds from precomputed leaf hashes (used by receivers that only have
  /// chunk digests).
  [[nodiscard]] static Result<MerkleTree> BuildFromLeaves(
      std::vector<Digest> leaves);

  const Digest& root() const { return levels_.back()[0]; }
  uint32_t leaf_count() const {
    return static_cast<uint32_t>(levels_[0].size());
  }
  const Digest& leaf(uint32_t i) const { return levels_[0][i]; }

  /// Generates the inclusion proof for leaf `index`.
  Result<MerkleProof> Prove(uint32_t index) const;

  /// Verifies that a block whose hash is `leaf_hash` is the
  /// `proof.index`-th leaf of the tree with root `root`.
  [[nodiscard]] static bool VerifyProof(const Digest& root,
                                        const Digest& leaf_hash,
                                        const MerkleProof& proof);

  /// Hash of two concatenated child digests (exposed for tests).
  static Digest HashPair(const Digest& left, const Digest& right);

  /// The leaf hash of a data block (domain-separated from interior nodes).
  /// Receivers hash incoming chunks with this before VerifyProof.
  static Digest HashLeaf(const Bytes& block);

 private:
  explicit MerkleTree(std::vector<std::vector<Digest>> levels)
      : levels_(std::move(levels)) {}

  // levels_[0] = leaf hashes ... levels_.back() = {root}.
  std::vector<std::vector<Digest>> levels_;
};

}  // namespace massbft

#endif  // MASSBFT_CRYPTO_MERKLE_H_
