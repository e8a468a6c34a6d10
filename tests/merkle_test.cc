#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/merkle.h"

namespace massbft {
namespace {

std::vector<Bytes> MakeBlocks(int n) {
  std::vector<Bytes> blocks;
  for (int i = 0; i < n; ++i)
    blocks.push_back(ToBytes("chunk-" + std::to_string(i)));
  return blocks;
}

TEST(MerkleTest, EmptyInputRejected) {
  EXPECT_FALSE(MerkleTree::Build({}).ok());
}

TEST(MerkleTest, SingleLeafRootIsLeafHash) {
  auto tree = MerkleTree::Build(MakeBlocks(1));
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->leaf_count(), 1u);
  EXPECT_EQ(tree->root(), tree->leaf(0));
  auto proof = tree->Prove(0);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(proof->path.empty());
  EXPECT_TRUE(MerkleTree::VerifyProof(tree->root(), tree->leaf(0), *proof));
}

TEST(MerkleTest, ProofOutOfRange) {
  auto tree = MerkleTree::Build(MakeBlocks(4));
  ASSERT_TRUE(tree.ok());
  EXPECT_FALSE(tree->Prove(4).ok());
}

TEST(MerkleTest, DifferentBlocksDifferentRoots) {
  auto a = MerkleTree::Build(MakeBlocks(4));
  auto blocks = MakeBlocks(4);
  blocks[2][0] ^= 1;
  auto b = MerkleTree::Build(blocks);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->root(), b->root());
}

TEST(MerkleTest, WrongLeafHashFailsVerification) {
  auto tree = MerkleTree::Build(MakeBlocks(8));
  ASSERT_TRUE(tree.ok());
  auto proof = tree->Prove(3);
  ASSERT_TRUE(proof.ok());
  Digest wrong = tree->leaf(4);
  EXPECT_FALSE(MerkleTree::VerifyProof(tree->root(), wrong, *proof));
}

TEST(MerkleTest, ProofForWrongIndexFails) {
  auto tree = MerkleTree::Build(MakeBlocks(8));
  ASSERT_TRUE(tree.ok());
  auto proof = tree->Prove(3);
  ASSERT_TRUE(proof.ok());
  MerkleProof shifted = *proof;
  shifted.index = 5;
  EXPECT_FALSE(MerkleTree::VerifyProof(tree->root(), tree->leaf(3), shifted));
}

TEST(MerkleTest, TamperedPathFails) {
  auto tree = MerkleTree::Build(MakeBlocks(16));
  ASSERT_TRUE(tree.ok());
  auto proof = tree->Prove(9);
  ASSERT_TRUE(proof.ok());
  MerkleProof bad = *proof;
  bad.path[1][0] ^= 0xFF;
  EXPECT_FALSE(MerkleTree::VerifyProof(tree->root(), tree->leaf(9), bad));
}

TEST(MerkleTest, TruncatedOrPaddedPathFails) {
  auto tree = MerkleTree::Build(MakeBlocks(16));
  ASSERT_TRUE(tree.ok());
  auto proof = tree->Prove(2);
  ASSERT_TRUE(proof.ok());
  MerkleProof truncated = *proof;
  truncated.path.pop_back();
  EXPECT_FALSE(
      MerkleTree::VerifyProof(tree->root(), tree->leaf(2), truncated));
  MerkleProof padded = *proof;
  padded.path.push_back(tree->leaf(0));
  EXPECT_FALSE(MerkleTree::VerifyProof(tree->root(), tree->leaf(2), padded));
}

TEST(MerkleTest, BuildFromLeavesMatchesBuild) {
  std::vector<Bytes> blocks = MakeBlocks(7);
  auto full = MerkleTree::Build(blocks);
  ASSERT_TRUE(full.ok());
  std::vector<Digest> leaves;
  for (uint32_t i = 0; i < full->leaf_count(); ++i)
    leaves.push_back(full->leaf(i));
  auto from_leaves = MerkleTree::BuildFromLeaves(leaves);
  ASSERT_TRUE(from_leaves.ok());
  EXPECT_EQ(from_leaves->root(), full->root());
}

// All leaves of trees of many sizes verify — covers odd/even levels and the
// promoted-node path.
class MerkleAllSizesTest : public ::testing::TestWithParam<int> {};

TEST_P(MerkleAllSizesTest, EveryLeafProvesAndVerifies) {
  int n = GetParam();
  auto tree = MerkleTree::Build(MakeBlocks(n));
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < n; ++i) {
    auto proof = tree->Prove(static_cast<uint32_t>(i));
    ASSERT_TRUE(proof.ok()) << "leaf " << i;
    EXPECT_TRUE(MerkleTree::VerifyProof(
        tree->root(), tree->leaf(static_cast<uint32_t>(i)), *proof))
        << "leaf " << i << " of " << n;
    // Cross-leaf proofs must not verify.
    if (n > 1) {
      int other = (i + 1) % n;
      EXPECT_FALSE(MerkleTree::VerifyProof(
          tree->root(), tree->leaf(static_cast<uint32_t>(other)), *proof))
          << "leaf " << other << " verified with proof for " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleAllSizesTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16,
                                           17, 28, 31, 32, 33, 64, 100));

TEST(MerkleTest, ProofByteSizeTracksPathLength) {
  auto tree = MerkleTree::Build(MakeBlocks(28));
  ASSERT_TRUE(tree.ok());
  auto proof = tree->Prove(0);
  ASSERT_TRUE(proof.ok());
  // Index, leaf count, path length, then one digest per level; counting
  // the encoding without writing it gives the same size.
  BinaryWriter w;
  proof->EncodeTo(&w);
  ByteCounter counter;
  proof->EncodeTo(&counter);
  EXPECT_EQ(proof->path.size(), 5u);
  EXPECT_EQ(w.size(), 4 + 4 + 2 + proof->path.size() * 32);
  EXPECT_EQ(counter.size(), w.size());
}

TEST(MerkleTest, ProofEncodeDecodeRoundTrip) {
  auto tree = MerkleTree::Build(MakeBlocks(28));
  ASSERT_TRUE(tree.ok());
  auto proof = tree->Prove(13);
  ASSERT_TRUE(proof.ok());
  BinaryWriter w;
  proof->EncodeTo(&w);
  BinaryReader r(w.buffer());
  auto decoded = MerkleProof::DecodeFrom(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->index, proof->index);
  EXPECT_EQ(decoded->leaf_count, proof->leaf_count);
  EXPECT_EQ(decoded->path, proof->path);
  EXPECT_TRUE(r.AtEnd());
}

}  // namespace
}  // namespace massbft
