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
#include "net/crc32.h"
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
  auto add = [&](const char* name, MessageType type, auto body) {
    seeds.emplace_back(name, EncodeFrame(Message(type, std::move(body)), src,
                                         ts));
  };

  // Each rng draw is its own statement, in the order the seeds were first
  // drawn: inside one argument list the order is unspecified.
  {
    Signature sig = RandSig(rng);
    EntryPtr entry = RandEntry(rng);
    add("pre_prepare", MessageType::kPrePrepare, PrePrepare{1, 9, entry, sig});
  }
  {
    Signature sig = RandSig(rng);
    Digest digest = RandDigest(rng);
    add("prepare", MessageType::kPrepare, PbftVote{1, 9, digest, sig});
  }
  {
    Certificate cert = RandCert(rng);
    EntryPtr entry = RandEntry(rng);
    add("entry_transfer", MessageType::kEntryTransfer,
        CertifiedEntry{entry, cert});
  }
  {
    std::vector<Chunk> chunks = RandChunks(rng);
    Certificate cert = RandCert(rng);
    Digest root = RandDigest(rng);
    add("chunk_batch", MessageType::kChunkBatch,
        ChunkBatch{1, 7, root, 4096, cert, chunks});
  }
  {
    Certificate cert = RandCert(rng);
    Digest digest = RandDigest(rng);
    add("raft_propose", MessageType::kRaftPropose,
        RaftPropose{1, 99, digest, cert, 2, 55, {{1, 2, 3, 4}}});
  }
  add("heartbeat", MessageType::kGroupHeartbeat, GroupHeartbeat{3, 12});
  add("catch_up_done", MessageType::kCatchUpDone, CatchUpDone{});
  // v3 compact-cert stress: a sparse participation bitmap (high signer
  // index) exercises the multi-byte bitmap decode path.
  Certificate wide;
  wide.gid = 1;
  wide.digest = RandDigest(rng);
  wide.AddSignature(0, RandSig(rng));
  wide.AddSignature(77, RandSig(rng));
  add("entry_transfer_wide_cert", MessageType::kEntryTransfer,
      CertifiedEntry{RandEntry(rng), wide});
  return seeds;
}

/// Rewrites the length and CRC fields of an edited frame, so that its
/// bytes get past the CRC check to the decoder.
void FixLengthAndCrc(Bytes* wire) {
  const size_t trace_len = ((*wire)[6] & kFrameFlagTraceContext) != 0
                               ? kTraceContextBytes
                               : 0;
  auto put_u32 = [wire](size_t offset, uint32_t v) {
    for (size_t i = 0; i < 4; ++i)
      (*wire)[offset + i] = static_cast<uint8_t>(v >> (8 * i));
  };
  put_u32(kFrameHeaderBytes - 8, static_cast<uint32_t>(
                                     wire->size() - kFrameHeaderBytes -
                                     trace_len));
  Crc32 crc;
  crc.Update(wire->data() + 4, kFrameHeaderBytes - 8);
  crc.Update(wire->data() + kFrameHeaderBytes,
             wire->size() - kFrameHeaderBytes);
  put_u32(kFrameHeaderBytes - 4, crc.Finish());
}

/// `msg`'s frame (a type without a trace context) around a body the
/// encoder never writes.
Bytes Reframe(const ProtocolMessage& msg, const Bytes& body) {
  Bytes wire = EncodeFrame(msg, NodeId{1, 2}, 0);
  wire.resize(kFrameHeaderBytes);
  wire.insert(wire.end(), body.begin(), body.end());
  FixLengthAndCrc(&wire);
  return wire;
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

  // Non-canonical bodies with valid CRCs: a bool flag of 2, and a count of
  // 1 written as the two-byte varint 0x81 0x00. Both must be rejected,
  // or they would decode and re-encode to different bytes.
  {
    const Bytes replay_two =
        Reframe(Message(MessageType::kTimestampAssign, TimestampAssign{}),
                Bytes{2, 0});
    WriteSeed(decode_dir, "bool_flag_two", replay_two.data(),
              replay_two.size());
    const Bytes padded =
        Reframe(Message(MessageType::kCatchUpRequest, CatchUpRequest{}),
                Bytes{0x81, 0x00, 3, 0, 5, 0, 0, 0, 0, 0, 0, 0});
    WriteSeed(decode_dir, "varint_non_minimal", padded.data(), padded.size());
  }

  // A valid CRC over a trace context that names another entry than the
  // body carries (seeds[2] is entry_transfer; the context's seq is at
  // offset 21).
  {
    Bytes other_seq = seeds[2].second;
    other_seq[kFrameHeaderBytes + 2] ^= 0x01;
    FixLengthAndCrc(&other_seq);
    WriteSeed(decode_dir, "trace_key_mismatch", other_seq.data(),
              other_seq.size());
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
