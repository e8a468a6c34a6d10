/// Fuzz target for the frame codec entry points a hostile peer reaches
/// first: DecodeFrame and PeekFrameLength over arbitrary bytes. Invariants
/// checked beyond "never crashes":
///  * an accepted frame always carries a message, and its trace flag
///    matches the message type's contract;
///  * accepted frames are canonical — re-encoding the decoded message with
///    the same origin timestamp reproduces the input byte-for-byte (the
///    decode->encode->decode loop cannot launder bytes).
///
/// Build: cmake -DMASSBFT_FUZZ=ON; with clang this links libFuzzer, with
/// other compilers it becomes a corpus-replay regression test (see
/// tests/fuzz/fuzz_driver_main.cc and DESIGN.md §16).

#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "net/wire.h"
#include "proto/messages.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace massbft;  // NOLINT: fuzz entry point, single TU

  if (size >= kFrameHeaderBytes) {
    // Streaming boundary probe: must never crash, and an accepted length
    // is bounded by the header contract.
    auto peeked = PeekFrameLength(data, size);
    if (peeked.ok() &&
        *peeked > kFrameHeaderBytes + kTraceContextBytes + kMaxBodyBytes) {
      std::abort();
    }
  }

  auto frame = DecodeFrame(data, size);
  if (!frame.ok()) return 0;  // Rejected input: the common, boring case.

  if (frame->msg == nullptr) std::abort();
  if (frame->has_trace != frame->msg->info().carries_trace) {
    std::abort();
  }

  // Canonical round-trip: accepted bytes re-encode to themselves.
  const uint64_t ts = frame->has_trace ? frame->trace.origin_ts_ns : 0;
  Bytes rewire = EncodeFrame(*frame->msg, frame->src, ts);
  if (rewire.size() != size) std::abort();
  for (size_t i = 0; i < size; ++i) {
    if (rewire[i] != data[i]) std::abort();
  }
  return 0;
}
