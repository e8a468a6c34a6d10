// Wire-path microbenchmark: how fast can one transport endpoint push
// frames to another on this host, and how many syscalls does each frame
// cost? Two scenarios:
//
//   * small-frame flood — back-to-back freeze-query frames (29 bytes), the
//     consensus-vote shape that dominates frame counts. Stresses per-frame
//     overhead: syscalls, allocations, queue bookkeeping.
//   * mixed-size replay — a deterministic cycle of freeze queries, PBFT votes,
//     ~2 KB entry transfers and ~32 KB chunk batches, the traffic mix of a
//     running cluster. Stresses the batch writer across frame-size jumps.
//
// Reported per scenario: frames/sec end-to-end (first send to last
// delivery), MB/sec, and syscalls/frame on both sides from the transport's
// own counters. Each scenario runs kRepeats times and each figure is
// reported as the median with its quartiles, since single runs on a shared
// host spread widely. --baseline=FILE writes the schema-versioned
// perf-trajectory document (core/bench_baseline.h) that BENCH_wire.json
// tracks, with the medians under the metric names;
// tools/obs/compare_bench.py diffs two such documents.
//
// The sender retries on backpressure (closed-loop flood): the measured
// number is the pipeline's drain rate, not the drop rate.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/bench_baseline.h"
#include "net/inproc_transport.h"
#include "net/tcp_transport.h"
#include "obs/json_writer.h"
#include "proto/messages.h"
#include "sim/metrics.h"

namespace massbft {
namespace {

struct WireBenchOptions {
  uint64_t small_frames = 300000;
  uint64_t mixed_frames = 60000;
  bool inproc = false;
  uint16_t port_base = 21100;
  std::string baseline_file;
};

/// Timed floods per scenario: enough for a median and quartiles.
constexpr uint64_t kRepeats = 5;

WireBenchOptions ParseArgs(int argc, char** argv) {
  WireBenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--frames=")) {
      opts.small_frames = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--mixed-frames=")) {
      opts.mixed_frames = std::strtoull(v, nullptr, 10);
    } else if (arg == "--inproc") {
      opts.inproc = true;
    } else if (const char* v = value("--port-base=")) {
      opts.port_base = static_cast<uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value("--baseline=")) {
      opts.baseline_file = v;
    } else {
      std::fprintf(stderr,
                   "usage: bench_wire [--frames=N] [--mixed-frames=N] "
                   "[--inproc] [--port-base=P] [--baseline=FILE]\n");
      std::exit(2);
    }
  }
  return opts;
}

/// Counts delivered frames and wakes the waiter at a target count.
struct CountingSink {
  std::mutex mu;
  std::condition_variable cv;
  uint64_t frames = 0;

  Transport::DeliverFn fn() {
    return [this](Frame) {
      std::lock_guard<std::mutex> lock(mu);
      ++frames;
      cv.notify_all();
    };
  }
  bool WaitFor(uint64_t target, std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, timeout, [&] { return frames >= target; });
  }
  void Reset() {
    std::lock_guard<std::mutex> lock(mu);
    frames = 0;
  }
};

/// The deterministic message cycle of one scenario.
std::vector<std::unique_ptr<ProtocolMessage>> MakeCycle(bool mixed) {
  std::vector<std::unique_ptr<ProtocolMessage>> cycle;
  if (!mixed) {
    cycle.push_back(std::make_unique<Message<Freeze>>(
        MessageType::kFreezeQuery, Freeze{1, 42}));
    return cycle;
  }
  Rng rng(20250808);
  auto rand_payload = [&](size_t n) {
    Bytes b(n);
    for (auto& byte : b) byte = static_cast<uint8_t>(rng.NextU64());
    return b;
  };
  // 8 freeze queries : 4 votes : 2 entry transfers : 1 chunk batch —
  // roughly a running cluster's frame mix by count, heavily skewed to small
  // frames while the bytes are dominated by the large ones.
  for (int i = 0; i < 8; ++i)
    cycle.push_back(std::make_unique<Message<Freeze>>(
        MessageType::kFreezeQuery,
        Freeze{static_cast<uint16_t>(i), static_cast<uint64_t>(i)}));
  for (int i = 0; i < 4; ++i) {
    Digest digest{};
    Signature sig{};
    for (auto& b : digest) b = static_cast<uint8_t>(rng.NextU64());
    for (auto& b : sig) b = static_cast<uint8_t>(rng.NextU64());
    cycle.push_back(std::make_unique<Message<PbftVote>>(
        MessageType::kPrepare,
        PbftVote{static_cast<uint64_t>(i), digest, sig}));
  }
  for (int i = 0; i < 2; ++i) {
    std::vector<Transaction> txns(4);
    for (auto& txn : txns) {
      txn.id = rng.NextU64();
      txn.client = static_cast<uint32_t>(rng.NextU64());
      txn.payload = rand_payload(512);
    }
    auto entry = std::make_shared<const Entry>(1, static_cast<uint64_t>(i),
                                               std::move(txns));
    cycle.push_back(std::make_unique<Message<CertifiedEntry>>(
        MessageType::kEntryTransfer, CertifiedEntry{entry, Certificate{}}));
  }
  {
    Digest root{};
    std::vector<Chunk> chunks(4);
    for (uint32_t i = 0; i < chunks.size(); ++i) {
      chunks[i].chunk_id = i;
      chunks[i].data = rand_payload(8192);
      chunks[i].proof.index = i;
      chunks[i].proof.leaf_count = 4;
    }
    cycle.push_back(std::make_unique<Message<ChunkBatch>>(
        MessageType::kChunkBatch,
        ChunkBatch{1, 7, root, Certificate{}, std::move(chunks)}));
  }
  return cycle;
}

/// One timed flood.
struct FloodRun {
  uint64_t bytes = 0;
  double wall_ms = 0;
  double frames_per_sec = 0;
  double mb_per_sec = 0;
  double send_syscalls_per_frame = 0;
  double recv_syscalls_per_frame = 0;
  uint64_t backpressure_retries = 0;
};

/// Median and quartiles of one figure over the kRepeats floods.
Quartiles SpreadOf(const std::vector<FloodRun>& runs,
                   double FloodRun::*field) {
  std::vector<double> values;
  for (const FloodRun& run : runs) values.push_back(run.*field);
  return QuartilesOf(std::move(values));
}

struct ScenarioResult {
  uint64_t frames = 0;  // Per flood.
  uint64_t bytes = 0;   // Per flood.
  Quartiles wall_ms;
  Quartiles frames_per_sec;
  Quartiles mb_per_sec;
  Quartiles send_syscalls_per_frame;
  Quartiles recv_syscalls_per_frame;
  uint64_t backpressure_retries = 0;  // Summed over the floods.
};

/// Floods `frames` messages (cycling through `cycle`) from tx to rx and
/// waits for full delivery, kRepeats times. The first `warmup` frames
/// establish the connection outside the timed windows.
ScenarioResult RunScenario(Transport& tx, Transport& rx, CountingSink& sink,
                           const std::vector<std::unique_ptr<ProtocolMessage>>&
                               cycle,
                           uint64_t frames, uint64_t warmup) {
  const NodeId dst = rx.self();
  uint64_t sent = 0;
  auto send_next = [&] {
    const ProtocolMessage& msg = *cycle[sent++ % cycle.size()];
    uint64_t retries = 0;
    while (!tx.Send(dst, msg).ok()) {
      ++retries;
      std::this_thread::yield();
    }
    return retries;
  };

  sink.Reset();
  for (uint64_t i = 0; i < warmup; ++i) (void)send_next();
  if (!sink.WaitFor(warmup, std::chrono::seconds(30))) {
    std::fprintf(stderr, "bench_wire: warmup frames never arrived\n");
    std::exit(1);
  }

  std::vector<FloodRun> runs;
  for (uint64_t rep = 0; rep < kRepeats; ++rep) {
    const Transport::Stats tx_before = tx.stats();
    const Transport::Stats rx_before = rx.stats();

    FloodRun r;
    auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < frames; ++i) r.backpressure_retries += send_next();
    if (!sink.WaitFor(sent, std::chrono::seconds(120))) {
      std::fprintf(stderr, "bench_wire: flood frames never arrived\n");
      std::exit(1);
    }
    auto end = std::chrono::steady_clock::now();

    const Transport::Stats tx_after = tx.stats();
    const Transport::Stats rx_after = rx.stats();
    r.bytes = tx_after.bytes_sent - tx_before.bytes_sent;
    r.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
    r.frames_per_sec = 1000.0 * static_cast<double>(frames) / r.wall_ms;
    r.mb_per_sec =
        1000.0 * static_cast<double>(r.bytes) / r.wall_ms / (1024.0 * 1024.0);
    r.send_syscalls_per_frame =
        static_cast<double>(tx_after.send_syscalls - tx_before.send_syscalls) /
        static_cast<double>(frames);
    r.recv_syscalls_per_frame =
        static_cast<double>(rx_after.recv_syscalls - rx_before.recv_syscalls) /
        static_cast<double>(frames);
    runs.push_back(r);
  }

  ScenarioResult result;
  result.frames = frames;
  result.bytes = runs.front().bytes;
  result.wall_ms = SpreadOf(runs, &FloodRun::wall_ms);
  result.frames_per_sec = SpreadOf(runs, &FloodRun::frames_per_sec);
  result.mb_per_sec = SpreadOf(runs, &FloodRun::mb_per_sec);
  result.send_syscalls_per_frame =
      SpreadOf(runs, &FloodRun::send_syscalls_per_frame);
  result.recv_syscalls_per_frame =
      SpreadOf(runs, &FloodRun::recv_syscalls_per_frame);
  for (const FloodRun& run : runs)
    result.backpressure_retries += run.backpressure_retries;
  return result;
}

void Report(const char* name, const ScenarioResult& r) {
  std::printf(
      "%-12s %10.0f frames/s  %8.1f MB/s  %6.3f send-syscalls/frame  "
      "%6.3f recv-syscalls/frame  %llu retries\n",
      name, r.frames_per_sec.median, r.mb_per_sec.median,
      r.send_syscalls_per_frame.median, r.recv_syscalls_per_frame.median,
      static_cast<unsigned long long>(r.backpressure_retries));
  std::printf(
      "%-12s medians of %llu runs; quartiles: frames/s [%.0f, %.0f]  MB/s "
      "[%.1f, %.1f]  send-syscalls/frame [%.3f, %.3f]  recv-syscalls/frame "
      "[%.3f, %.3f]\n",
      "", static_cast<unsigned long long>(kRepeats), r.frames_per_sec.q1,
      r.frames_per_sec.q3, r.mb_per_sec.q1, r.mb_per_sec.q3,
      r.send_syscalls_per_frame.q1, r.send_syscalls_per_frame.q3,
      r.recv_syscalls_per_frame.q1, r.recv_syscalls_per_frame.q3);
}

/// Writes `name` as the median and `name`_q1 / `name`_q3 as its quartiles.
void WriteSpread(obs::JsonWriter& w, const std::string& name,
                 const Quartiles& spread) {
  w.Member(name, spread.median);
  w.Member(name + "_q1", spread.q1);
  w.Member(name + "_q3", spread.q3);
}

void WriteScenarioJson(obs::JsonWriter& w, const ScenarioResult& r) {
  w.BeginObject();
  w.Member("runs", kRepeats);
  w.Member("frames", r.frames);
  w.Member("bytes", r.bytes);
  w.Member("wall_ms", r.wall_ms.median);
  WriteSpread(w, "frames_per_sec", r.frames_per_sec);
  WriteSpread(w, "mb_per_sec", r.mb_per_sec);
  WriteSpread(w, "send_syscalls_per_frame", r.send_syscalls_per_frame);
  WriteSpread(w, "recv_syscalls_per_frame", r.recv_syscalls_per_frame);
  w.Member("backpressure_retries", r.backpressure_retries);
  w.EndObject();
}

/// Renders the result object of the baseline document: the mandatory
/// ExperimentResult surface (check_bench_schema.py) with the small-flood
/// medians in the headline fields, plus both scenarios in full.
std::string ResultJson(const ScenarioResult& small,
                       const ScenarioResult& mixed) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.BeginObject();
  w.Member("mode", std::string("wire"));
  w.Member("throughput_tps", small.frames_per_sec.median);
  w.Member("mean_latency_ms", 0.0);
  w.Member("p50_latency_ms", 0.0);
  w.Member("p99_latency_ms", 0.0);
  w.Member("committed_txns", small.frames);
  w.Member("aborted_txns", 0.0);
  w.Member("total_wan_bytes", 0.0);
  w.Member("total_lan_bytes", small.bytes);
  w.Member("wan_bytes_per_entry", 0.0);
  w.Member("wall_ms", small.wall_ms.median);
  w.Key("phases");
  w.BeginObject();
  w.EndObject();
  w.Key("timeline");
  w.BeginArray();
  w.EndArray();
  w.Key("small_flood");
  WriteScenarioJson(w, small);
  w.Key("mixed_replay");
  WriteScenarioJson(w, mixed);
  w.EndObject();
  return out.str();
}

int Run(const WireBenchOptions& opts) {
  std::unique_ptr<InProcHub> hub;
  std::unique_ptr<Transport> tx;
  std::unique_ptr<Transport> rx;
  if (opts.inproc) {
    hub = std::make_unique<InProcHub>();
    tx = hub->CreateTransport(NodeId{0, 0});
    rx = hub->CreateTransport(NodeId{0, 1});
  } else {
    auto ports = MakeLocalPortMap({2}, opts.port_base);
    if (!ports.ok()) {
      std::fprintf(stderr, "bench_wire: %s\n",
                   ports.status().ToString().c_str());
      return 1;
    }
    // Deep queues: the bench measures drain rate, and every backpressure
    // retry is a scheduler round-trip that perturbs the measurement.
    TcpTransport::Options topts;
    topts.max_queue_frames = 8192;
    topts.max_queue_bytes = 64 * 1024 * 1024;
    tx = std::make_unique<TcpTransport>(NodeId{0, 0}, *ports, topts);
    rx = std::make_unique<TcpTransport>(NodeId{0, 1}, *ports, topts);
  }

  CountingSink tx_sink, rx_sink;
  if (Status s = tx->Start(tx_sink.fn()); !s.ok()) {
    std::fprintf(stderr, "bench_wire: %s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = rx->Start(rx_sink.fn()); !s.ok()) {
    std::fprintf(stderr, "bench_wire: %s\n", s.ToString().c_str());
    return 1;
  }

  auto small_cycle = MakeCycle(/*mixed=*/false);
  auto mixed_cycle = MakeCycle(/*mixed=*/true);
  ScenarioResult small =
      RunScenario(*tx, *rx, rx_sink, small_cycle, opts.small_frames,
                  /*warmup=*/std::min<uint64_t>(2000, opts.small_frames));
  Report("small-flood", small);
  ScenarioResult mixed =
      RunScenario(*tx, *rx, rx_sink, mixed_cycle, opts.mixed_frames,
                  /*warmup=*/std::min<uint64_t>(500, opts.mixed_frames));
  Report("mixed-replay", mixed);

  tx->Stop();
  rx->Stop();

  if (!opts.baseline_file.empty()) {
    Status s = WriteBenchBaselineFileRaw(opts.baseline_file, "wire",
                                         ResultJson(small, mixed));
    if (!s.ok()) {
      std::fprintf(stderr, "bench_wire: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("baseline written: %s\n", opts.baseline_file.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace massbft

int main(int argc, char** argv) {
  return massbft::Run(massbft::ParseArgs(argc, argv));
}
