#include "crypto/merkle.h"

namespace massbft {

Result<MerkleProof> MerkleProof::DecodeFrom(BinaryReader* r) {
  MerkleProof proof;
  MASSBFT_RETURN_IF_ERROR(r->GetU32(&proof.index));
  MASSBFT_RETURN_IF_ERROR(r->GetU32(&proof.leaf_count));
  uint16_t len = 0;
  MASSBFT_RETURN_IF_ERROR(r->GetU16(&len));
  // A binary tree over <= 2^32 leaves has depth <= 32; anything larger is
  // a malformed frame, rejected before allocating.
  if (len > 64) return Status::Corruption("implausible Merkle path length");
  proof.path.resize(len);
  for (uint16_t i = 0; i < len; ++i)
    MASSBFT_RETURN_IF_ERROR(r->GetRaw(proof.path[i].data(),
                                      proof.path[i].size()));
  return proof;
}

Digest MerkleTree::HashPair(const Digest& left, const Digest& right) {
  Sha256 h;
  // Domain separation tag for interior nodes.
  uint8_t tag = 0x01;
  h.Update(&tag, 1);
  h.Update(left.data(), left.size());
  h.Update(right.data(), right.size());
  return h.Finish();
}

Digest MerkleTree::HashLeaf(const Bytes& block) {
  Sha256 h;
  uint8_t tag = 0x00;
  h.Update(&tag, 1);
  h.Update(block);
  return h.Finish();
}

Result<MerkleTree> MerkleTree::Build(const std::vector<Bytes>& blocks) {
  if (blocks.empty())
    return Status::InvalidArgument("MerkleTree requires at least one block");
  std::vector<Digest> leaves;
  leaves.reserve(blocks.size());
  for (const Bytes& b : blocks) leaves.push_back(HashLeaf(b));
  return BuildFromLeaves(std::move(leaves));
}

Result<MerkleTree> MerkleTree::BuildFromLeaves(std::vector<Digest> leaves) {
  if (leaves.empty())
    return Status::InvalidArgument("MerkleTree requires at least one leaf");
  std::vector<std::vector<Digest>> levels;
  levels.push_back(std::move(leaves));
  while (levels.back().size() > 1) {
    const std::vector<Digest>& below = levels.back();
    std::vector<Digest> above;
    above.reserve((below.size() + 1) / 2);
    for (size_t i = 0; i + 1 < below.size(); i += 2)
      above.push_back(HashPair(below[i], below[i + 1]));
    if (below.size() % 2 == 1) above.push_back(below.back());  // Promote.
    levels.push_back(std::move(above));
  }
  return MerkleTree(std::move(levels));
}

Result<MerkleProof> MerkleTree::Prove(uint32_t index) const {
  if (index >= leaf_count())
    return Status::OutOfRange("leaf index out of range");
  MerkleProof proof;
  proof.index = index;
  proof.leaf_count = leaf_count();
  uint32_t i = index;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    const std::vector<Digest>& nodes = levels_[level];
    uint32_t sibling = (i % 2 == 0) ? i + 1 : i - 1;
    // A promoted last node (odd level size, i == last) has no sibling and
    // contributes nothing at this level.
    if (sibling < nodes.size()) proof.path.push_back(nodes[sibling]);
    i /= 2;
  }
  return proof;
}

bool MerkleTree::VerifyProof(const Digest& root, const Digest& leaf_hash,
                             const MerkleProof& proof) {
  if (proof.leaf_count == 0 || proof.index >= proof.leaf_count) return false;
  Digest acc = leaf_hash;
  uint32_t i = proof.index;
  uint32_t width = proof.leaf_count;
  size_t used = 0;
  while (width > 1) {
    bool promoted = (width % 2 == 1) && (i == width - 1);
    if (!promoted) {
      if (used >= proof.path.size()) return false;
      const Digest& sibling = proof.path[used++];
      acc = (i % 2 == 0) ? HashPair(acc, sibling) : HashPair(sibling, acc);
    }
    i /= 2;
    width = (width + 1) / 2;
  }
  return used == proof.path.size() && acc == root;
}

}  // namespace massbft
