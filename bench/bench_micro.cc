// Microbenchmarks (google-benchmark) for the primitive layers: SHA-256,
// HMAC, Merkle trees, GF(2^8), Reed-Solomon coding, transfer plans, entry
// codecs, Zipf generation and Aria batch execution. These quantify the
// paper's claim that coding overhead is negligible (Fig 11: ~2.3 ms per
// entry for encode + rebuild).

#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "core/experiment.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "db/aria.h"
#include "db/kv_store.h"
#include "ec/gf256.h"
#include "ec/reed_solomon.h"
#include "proto/entry.h"
#include "replication/encoder.h"
#include "replication/transfer_plan.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace massbft {
namespace {

Bytes RandomBytes(size_t n, uint64_t seed = 1) {
  Rng rng(seed);
  Bytes b(n);
  for (auto& byte : b) byte = static_cast<uint8_t>(rng.NextBelow(256));
  return b;
}

// ---------------------------------------------------------------- Crypto

void BM_Sha256(benchmark::State& state) {
  Bytes data = RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(Sha256::Hash(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

// Same hash with the portable compression function pinned: the spread
// against BM_Sha256 is the SHA-NI speedup on this machine.
void BM_Sha256Scalar(benchmark::State& state) {
  Bytes data = RandomBytes(static_cast<size_t>(state.range(0)));
  Sha256::ForceImplForTest(Sha256::Impl::kScalar);
  for (auto _ : state) benchmark::DoNotOptimize(Sha256::Hash(data));
  Sha256::RestoreImplDispatch();
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256Scalar)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key = RandomBytes(32);
  Bytes data = RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(HmacSha256(key, data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(201)->Arg(4096);

void BM_SignVerify(benchmark::State& state) {
  KeyRegistry registry;
  registry.RegisterNode(NodeId{0, 0});
  Bytes msg = RandomBytes(32);
  Signature sig = registry.Sign(NodeId{0, 0}, msg);
  for (auto _ : state)
    benchmark::DoNotOptimize(registry.Verify(NodeId{0, 0}, msg, sig));
}
BENCHMARK(BM_SignVerify);

void BM_MerkleBuild(benchmark::State& state) {
  std::vector<Bytes> blocks;
  for (int i = 0; i < state.range(0); ++i)
    blocks.push_back(RandomBytes(4096, static_cast<uint64_t>(i)));
  for (auto _ : state) benchmark::DoNotOptimize(MerkleTree::Build(blocks));
}
BENCHMARK(BM_MerkleBuild)->Arg(7)->Arg(28)->Arg(255);

void BM_MerkleProveVerify(benchmark::State& state) {
  std::vector<Bytes> blocks;
  for (int i = 0; i < 28; ++i)
    blocks.push_back(RandomBytes(4096, static_cast<uint64_t>(i)));
  auto tree = MerkleTree::Build(blocks);
  auto proof = tree->Prove(13);
  Digest leaf = MerkleTree::HashLeaf(blocks[13]);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        MerkleTree::VerifyProof(tree->root(), leaf, *proof));
}
BENCHMARK(BM_MerkleProveVerify);

// ------------------------------------------------------------------- EC

void BM_Gf256MulAddRow(benchmark::State& state) {
  Bytes in = RandomBytes(static_cast<size_t>(state.range(0)));
  Bytes out(in.size(), 0);
  for (auto _ : state) {
    Gf256::MulAddRow(0x57, in.data(), out.data(), in.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Gf256MulAddRow)->Arg(4096)->Arg(65536);

// Portable-kernel counterpart of BM_Gf256MulAddRow (SIMD speedup probe).
void BM_Gf256MulAddRowScalar(benchmark::State& state) {
  Bytes in = RandomBytes(static_cast<size_t>(state.range(0)));
  Bytes out(in.size(), 0);
  Gf256::ForceKernelForTest(Gf256::Kernel::kScalar);
  for (auto _ : state) {
    Gf256::MulAddRow(0x57, in.data(), out.data(), in.size());
    benchmark::DoNotOptimize(out.data());
  }
  Gf256::RestoreKernelDispatch();
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Gf256MulAddRowScalar)->Arg(65536);

void BM_RsEncode(benchmark::State& state) {
  // The paper's 7->7 plan (3 data + 4 parity) and 4->7 (13+15) on a 56 KB
  // entry (270 x 201 B batch).
  int n_data = static_cast<int>(state.range(0));
  int n_parity = static_cast<int>(state.range(1));
  auto rs = ReedSolomon::Create(n_data, n_parity);
  Bytes entry = RandomBytes(56000);
  for (auto _ : state) benchmark::DoNotOptimize(rs->EncodeMessage(entry));
  state.SetBytesProcessed(state.iterations() * 56000);
}
BENCHMARK(BM_RsEncode)->Args({3, 4})->Args({13, 15});

void BM_RsReconstruct(benchmark::State& state) {
  auto rs = ReedSolomon::Create(13, 15);
  Bytes entry = RandomBytes(56000);
  auto shards = rs->EncodeMessage(entry);
  std::vector<std::optional<Bytes>> present(shards->begin(), shards->end());
  // Worst case: all data shards lost, rebuild from parity.
  for (int i = 0; i < 13; ++i) present[i].reset();
  for (auto _ : state) benchmark::DoNotOptimize(rs->DecodeMessage(present));
  state.SetBytesProcessed(state.iterations() * 56000);
}
BENCHMARK(BM_RsReconstruct);

void BM_EncodeEntryForPlan(benchmark::State& state) {
  std::vector<Transaction> txns;
  for (int i = 0; i < 270; ++i)
    txns.push_back(Transaction{static_cast<uint64_t>(i), 0, 0,
                               RandomBytes(201, static_cast<uint64_t>(i))});
  Entry entry(0, 0, txns);
  auto plan = TransferPlan::Create(7, 7);
  for (auto _ : state)
    benchmark::DoNotOptimize(EncodeEntryForPlan(entry, *plan));
}
BENCHMARK(BM_EncodeEntryForPlan);

void BM_TransferPlanCreate(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(TransferPlan::Create(19, 16));
}
BENCHMARK(BM_TransferPlanCreate);

// ------------------------------------------------------------ Proto / DB

void BM_EntryEncodeDecode(benchmark::State& state) {
  std::vector<Transaction> txns;
  for (int i = 0; i < 270; ++i)
    txns.push_back(Transaction{static_cast<uint64_t>(i), 0, 0,
                               RandomBytes(201, static_cast<uint64_t>(i))});
  Entry entry(0, 0, txns);
  for (auto _ : state)
    benchmark::DoNotOptimize(Entry::Decode(entry.Encoded()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(entry.ByteSize()));
}
BENCHMARK(BM_EntryEncodeDecode);

void BM_ZipfNext(benchmark::State& state) {
  ZipfGenerator zipf(1'000'000, 0.99);
  Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.Next(rng));
}
BENCHMARK(BM_ZipfNext);

/// The store's heap bytes (index plus blocks) per written row.
double StoreBytesPerRow(const KvStore& store) {
  if (store.materialized_size() == 0) return 0;
  return static_cast<double>(store.bytes()) /
         static_cast<double>(store.materialized_size());
}

void BM_AriaBatch(benchmark::State& state) {
  auto workload = MakeWorkload(WorkloadKind::kYcsbA, 1.0);
  KvStore store;
  workload->InstallInitialState(&store);
  AriaExecutor executor(&store, workload->MakeFactory());
  Rng rng(4);
  std::vector<Transaction> batch;
  for (int i = 0; i < state.range(0); ++i)
    batch.push_back(Transaction{static_cast<uint64_t>(i), 0, 0,
                                workload->NextPayload(rng)});
  for (auto _ : state) benchmark::DoNotOptimize(executor.ExecuteBatch(batch));
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["store_bytes_per_row"] = StoreBytesPerRow(store);
}
BENCHMARK(BM_AriaBatch)->Arg(37)->Arg(270);

// TPC-C execution as each replica pays it on perfbench's tpcc-crash:
// batches of 8 (its core.txns_per_entry is 7.8) over 128 warehouses. The
// loop cycles through one 2 s sub-run's worth of transactions (2,400 at
// 1.2k txn/s), so the store grows as it does in a sub-run, then starts
// again from the pristine state. store_bytes_per_row is read from the
// full store just before a reset (from the partial one if none happened).
void BM_AriaBatchTpcc(benchmark::State& state) {
  constexpr int kTxnsPerSubRun = 2400;
  const int batch_size = static_cast<int>(state.range(0));
  auto workload = MakeWorkload(WorkloadKind::kTpcc, 1.0);
  KvStore store;
  workload->InstallInitialState(&store);
  AriaExecutor executor(&store, workload->MakeFactory());
  Rng rng(4);
  std::vector<std::vector<Transaction>> batches(
      static_cast<size_t>(kTxnsPerSubRun / batch_size));
  uint64_t id = 0;
  for (auto& batch : batches)
    for (int i = 0; i < batch_size; ++i)
      batch.push_back(Transaction{id++, 0, 0, workload->NextPayload(rng)});
  size_t next = 0;
  double bytes_per_row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.ExecuteBatch(batches[next]));
    if (++next == batches.size()) {
      state.PauseTiming();
      bytes_per_row = StoreBytesPerRow(store);
      store.Reset();
      next = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
  state.counters["store_bytes_per_row"] =
      bytes_per_row > 0 ? bytes_per_row : StoreBytesPerRow(store);
}
BENCHMARK(BM_AriaBatchTpcc)->Arg(8);

// ------------------------------------------------------------- Simulator

// Raw event-loop turnover: schedule-then-run batches of small callbacks.
// With InlineFunction callbacks and the reserved binary heap this path
// performs no allocation per event.
void BM_SimulatorEventLoop(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Simulator sim;
  sim.Reserve(static_cast<size_t>(batch));
  uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i)
      sim.Schedule(i % 7, [&sink, i] { sink += static_cast<uint64_t>(i); });
    sim.RunAll();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SimulatorEventLoop)->Arg(1024);

// -------------------------------------------------------- Observability

// Whole-simulation cost of trace recording: Arg(0) runs a short MassBFT
// experiment with tracing off, Arg(1) with tracing on. The acceptance bar
// is <2% wall-clock overhead between the two.
void BM_ExperimentTracing(benchmark::State& state) {
  for (auto _ : state) {
    ExperimentConfig config;
    config.topology = TopologyConfig::Nationwide(2, 4);
    config.protocol = ProtocolConfig::MassBft();
    config.workload = WorkloadKind::kYcsbA;
    config.workload_scale = 0.01;
    config.clients_per_group = 50;
    config.duration = kSecond;
    config.warmup = kSecond / 4;
    config.enable_tracing = state.range(0) != 0;
    Experiment experiment(std::move(config));
    MASSBFT_CHECK(experiment.Setup().ok());
    benchmark::DoNotOptimize(experiment.Run());
  }
}
BENCHMARK(BM_ExperimentTracing)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace massbft

BENCHMARK_MAIN();
