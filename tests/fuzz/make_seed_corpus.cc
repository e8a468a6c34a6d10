/// Regenerates the checked-in fuzz seed corpus (tests/fuzz/corpus/).
/// Deterministic: a fixed Rng seed and fixed origin timestamps produce
/// byte-identical seeds on every run, so regeneration never churns git.
///
///   ./make_seed_corpus <repo>/tests/fuzz/corpus
///
/// decode_frame/ gets one well-formed frame per interesting message type
/// plus truncated / bit-flipped / bad-magic variants (the rejection paths
/// deserve coverage too). reassembler/ gets multi-frame streams and a
/// stream ending mid-frame.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/wire.h"
#include "proto/messages.h"

namespace massbft {
namespace {

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
  txn.payload.resize(rng.NextBelow(64));
  for (auto& b : txn.payload) b = static_cast<uint8_t>(rng.NextU64());
  return txn;
}

EntryPtr RandEntry(Rng& rng) {
  std::vector<Transaction> txns;
  for (size_t i = 0; i < 2; ++i) txns.push_back(RandTxn(rng));
  return std::make_shared<const Entry>(1, rng.NextU64(), std::move(txns));
}

Certificate RandCert(Rng& rng) {
  Certificate cert;
  cert.gid = 1;
  cert.digest = RandDigest(rng);
  for (size_t i = 0; i < 2; ++i)
    cert.AddSignature(static_cast<uint16_t>(i), RandSig(rng));
  return cert;
}

std::vector<Chunk> RandChunks(Rng& rng) {
  std::vector<Chunk> chunks;
  for (size_t i = 0; i < 2; ++i) {
    Chunk c;
    c.chunk_id = static_cast<uint32_t>(i);
    c.data.resize(1 + rng.NextBelow(32));
    for (auto& b : c.data) b = static_cast<uint8_t>(rng.NextU64());
    c.proof.index = static_cast<uint32_t>(i);
    c.proof.leaf_count = 2;
    c.proof.path = {RandDigest(rng), RandDigest(rng)};
    chunks.push_back(std::move(c));
  }
  return chunks;
}

/// One representative frame per wire shape the decoder branches on: the
/// trace-carrying types, the small control types, and the variable-length
/// containers.
std::vector<std::pair<std::string, Bytes>> SeedFrames() {
  Rng rng(20250808);
  const NodeId src{1, 2};
  const uint64_t ts = 777;  // Fixed: regeneration must be byte-stable.
  std::vector<std::pair<std::string, Bytes>> seeds;
  auto add = [&](const char* name, const ProtocolMessage& msg) {
    seeds.emplace_back(name, EncodeFrame(msg, src, ts));
  };

  add("pre_prepare", PrePrepareMsg(1, 9, RandEntry(rng), RandSig(rng)));
  add("prepare", PbftVoteMsg(MessageType::kPrepare, 1, 9, RandDigest(rng),
                             RandSig(rng)));
  add("entry_transfer", EntryTransferMsg(RandEntry(rng), RandCert(rng)));
  add("chunk_batch", ChunkBatchMsg(1, 7, RandDigest(rng), RandCert(rng),
                                   RandChunks(rng), 4096));
  add("raft_propose",
      RaftProposeMsg(1, 99, RandDigest(rng), RandCert(rng),
                     {TimestampElement{1, 2, 3, 4}}, 2, 55));
  add("heartbeat", GroupHeartbeatMsg(3, 12));
  add("catch_up_done", CatchUpDoneMsg());
  // v3 compact-cert stress: a sparse participation bitmap (high signer
  // index) exercises the multi-byte bitmap decode path.
  Certificate wide;
  wide.gid = 1;
  wide.digest = RandDigest(rng);
  wide.AddSignature(0, RandSig(rng));
  wide.AddSignature(77, RandSig(rng));
  add("entry_transfer_wide_cert",
      EntryTransferMsg(RandEntry(rng), wide));
  return seeds;
}

void WriteSeed(const std::filesystem::path& dir, const std::string& name,
               const uint8_t* data, size_t size) {
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data), static_cast<long>(size));
}

}  // namespace
}  // namespace massbft

int main(int argc, char** argv) {
  using namespace massbft;  // NOLINT: corpus generator, single TU
  namespace fs = std::filesystem;
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_seed_corpus <corpus-dir>\n");
    return 2;
  }
  const fs::path root = argv[1];
  const fs::path decode_dir = root / "decode_frame";
  const fs::path reasm_dir = root / "reassembler";
  fs::create_directories(decode_dir);
  fs::create_directories(reasm_dir);

  auto seeds = SeedFrames();
  for (const auto& [name, wire] : seeds) {
    WriteSeed(decode_dir, name, wire.data(), wire.size());
  }

  // Rejection-path seeds: truncation, a CRC-breaking bit flip, bad magic,
  // and a header-only prefix.
  {
    const Bytes& wire = seeds[0].second;
    WriteSeed(decode_dir, "truncated", wire.data(), wire.size() / 2);
    Bytes flipped = wire;
    flipped[flipped.size() - 1] ^= 0x01;
    WriteSeed(decode_dir, "crc_flip", flipped.data(), flipped.size());
    Bytes bad_magic = wire;
    bad_magic[0] ^= 0xFF;
    WriteSeed(decode_dir, "bad_magic", bad_magic.data(), bad_magic.size());
    WriteSeed(decode_dir, "header_only", wire.data(), kFrameHeaderBytes);
  }

  // Streams for the reassembler: all seed frames back to back, and the
  // same stream cut mid-frame.
  {
    Bytes stream;
    for (const auto& [name, wire] : seeds) {
      stream.insert(stream.end(), wire.begin(), wire.end());
    }
    WriteSeed(reasm_dir, "all_frames_stream", stream.data(), stream.size());
    WriteSeed(reasm_dir, "cut_mid_frame", stream.data(),
              stream.size() - seeds.back().second.size() / 2);
    Bytes corrupt = stream;
    corrupt[seeds[0].second.size() + 5] ^= 0x10;  // Second frame's header.
    WriteSeed(reasm_dir, "corrupt_second_frame", corrupt.data(),
              corrupt.size());
  }

  std::printf("make_seed_corpus: wrote %s\n", root.string().c_str());
  return 0;
}
