/// Regenerates the checked-in fuzz seed corpus (tests/fuzz/corpus/).
/// Deterministic: literal messages and fixed origin timestamps produce
/// byte-identical seeds on every run, so regeneration never churns git.
///
///   ./make_seed_corpus <repo>/tests/fuzz/corpus
///
/// decode_frame/ gets one well-formed frame per message type (the golden
/// instances net_test pins, named by registry row) plus truncated /
/// bit-flipped / bad-magic / non-canonical variants of those frames (the
/// rejection paths deserve coverage too). reassembler/ gets the same
/// frames as multi-frame streams and a stream ending mid-frame.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "golden_messages.h"
#include "net/crc32.h"
#include "net/wire.h"
#include "proto/messages.h"

namespace massbft {
namespace {

using Seeds = std::vector<std::pair<std::string, Bytes>>;

/// One frame per registered type, sent by (1,2) at a fixed origin time and
/// named by its registry row; then an entry transfer whose certificate has
/// a high signer index, which exercises the multi-byte participation
/// bitmap.
Seeds SeedFrames() {
  const NodeId src{1, 2};
  const uint64_t ts = 777;
  Seeds seeds;
  for (const MessageTypeInfo& info : MessageTypes())
    seeds.emplace_back(info.name,
                       EncodeFrame(*GoldenMessage(info.type), src, ts));
  Certificate wide = GoldenCert();
  wide.AddSignature(77, Filled<Signature>(0xA0));
  seeds.emplace_back(
      "entry_transfer_wide_cert",
      EncodeFrame(Message(MessageType::kEntryTransfer,
                          CertifiedEntry{GoldenEntry(), wide}),
                  src, ts));
  return seeds;
}

/// The seed frame named `name`.
const Bytes& SeedNamed(const Seeds& seeds, const std::string& name) {
  for (const auto& [seed_name, wire] : seeds)
    if (seed_name == name) return wire;
  std::fprintf(stderr, "make_seed_corpus: no seed %s\n", name.c_str());
  std::exit(1);
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

/// The header of `seed` (a type without a trace context) around a body the
/// encoder never writes.
Bytes Reframe(const Bytes& seed, const Bytes& body) {
  Bytes wire(seed.begin(), seed.begin() + kFrameHeaderBytes);
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
    const Bytes& wire = SeedNamed(seeds, "pre_prepare");
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
        Reframe(SeedNamed(seeds, "group_relay"), Bytes{2, 0, 0, 0});
    WriteSeed(decode_dir, "bool_flag_two", replay_two.data(),
              replay_two.size());
    const Bytes padded =
        Reframe(SeedNamed(seeds, "catch_up_request"),
                Bytes{0x81, 0x00, 3, 0, 5, 0, 0, 0, 0, 0, 0, 0});
    WriteSeed(decode_dir, "varint_non_minimal", padded.data(), padded.size());
  }

  // A valid CRC over a trace context that names another entry than the
  // body carries (the context's seq is at offset 21).
  {
    Bytes other_seq = SeedNamed(seeds, "entry_transfer");
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
