#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "db/aria.h"
#include "db/kv_store.h"
#include "workload/workload.h"

namespace massbft {
namespace {

// ------------------------------------------------------------- KvStore

TEST(KvStoreTest, PutGetRoundTrip) {
  KvStore store;
  store.Put("k1", ToBytes("v1"));
  auto v = store.Get("k1");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, ToBytes("v1"));
  EXPECT_FALSE(store.Get("missing").has_value());
}

TEST(KvStoreTest, LazyDefaultSynthesizesPristineValues) {
  KvStore store;
  store.SetDefaultValueFn([](std::string_view key) -> std::optional<Bytes> {
    if (key.substr(0, 2) != "t:") return std::nullopt;
    return ToBytes("default");
  });
  EXPECT_EQ(*store.Get("t:5"), ToBytes("default"));
  EXPECT_FALSE(store.Get("other").has_value());
  EXPECT_EQ(store.materialized_size(), 0u);  // Nothing written.
  store.Put("t:5", ToBytes("written"));
  EXPECT_EQ(*store.Get("t:5"), ToBytes("written"));
  EXPECT_EQ(store.materialized_size(), 1u);
}

TEST(KvStoreTest, ResetRestoresPristine) {
  KvStore store;
  store.SetDefaultValueFn(
      [](std::string_view) -> std::optional<Bytes> { return ToBytes("d"); });
  store.Put("x", ToBytes("w"));
  store.Reset();
  EXPECT_EQ(*store.Get("x"), ToBytes("d"));
}

/// The formula kv_store.h documents for StateFingerprint, over a model.
uint64_t ModelFingerprint(const std::map<std::string, Bytes>& model) {
  uint64_t fp = 0;
  for (const auto& [key, value] : model) {
    uint64_t h = std::hash<std::string_view>{}(key);
    for (uint8_t b : value) h = h * 1099511628211ULL + b;
    fp ^= h;
  }
  return fp;
}

/// A random value: empty, short, mid-sized, near a quarter block (where a
/// row gets its own block), just over half a block (which would leave
/// half of a shared block unused) or larger than a 64 KiB block.
Bytes RandomValue(Rng& rng) {
  size_t size = 0;
  const uint64_t kind = rng.NextBelow(100);
  if (kind < 10) {
    size = 0;
  } else if (kind < 65) {
    size = 1 + rng.NextBelow(40);
  } else if (kind < 87) {
    size = 100 + rng.NextBelow(2000);
  } else if (kind < 92) {
    size = 15'000 + rng.NextBelow(3'000);
  } else if (kind < 97) {
    size = 32'800 + rng.NextBelow(1'000);
  } else {
    size = 65'000 + rng.NextBelow(6'000);
  }
  Bytes value(size);
  for (auto& b : value) b = static_cast<uint8_t>(rng.NextU64());
  return value;
}

/// Seeded Put/Get/Reset against a std::map model, under two hash seeds.
/// After every step the store answers every query as the model does, and
/// its footprint stays within the index, twice the live rows and the one
/// block being filled.
TEST(KvStoreTest, RandomOpsMatchMapModel) {
  // Keys inside and beyond the 15-byte small-string buffer, the empty key,
  // and "p" keys that the default function synthesizes.
  std::vector<std::string> keys = {""};
  for (int i = 0; i < 48; ++i) {
    std::string key = (i % 4 == 0 ? "p" : "k") + std::to_string(i);
    if (i % 2 == 1) key += std::string(12 + i % 9, 'x');
    keys.push_back(key);
  }
  auto pristine = [](std::string_view key) -> std::optional<Bytes> {
    if (key.empty() || key[0] != 'p') return std::nullopt;
    return ToBytes("pristine:" + std::string(key));
  };
  // The index the store's growth rule gives `n` keys: the smallest power
  // of two of at least 16 slots holding them at load <= 3/4.
  auto index_bytes = [](size_t n) -> size_t {
    if (n == 0) return 0;
    size_t slots = 16;
    while (n * 4 > slots * 3) slots *= 2;
    return slots * sizeof(uint64_t);
  };
  for (uint64_t seed : {uint64_t{0}, uint64_t{0x9e3779b97f4a7c15}}) {
    KvStore::SetHashSeedForTest(seed);
    KvStore store;
    KvStore::SetHashSeedForTest(0);
    store.SetDefaultValueFn(pristine);
    std::map<std::string, Bytes> model;
    Rng rng(31);
    int compactions = 0;
    for (int step = 0; step < 2500; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      const std::string& key = keys[rng.NextBelow(keys.size())];
      const uint64_t op = rng.NextBelow(1000);
      const size_t before = store.bytes();
      if (op < 600) {
        Bytes value = RandomValue(rng);
        model[key] = value;
        store.Put(key, std::move(value));
        if (store.bytes() < before) ++compactions;
      } else if (op < 995) {
        auto it = model.find(key);
        EXPECT_EQ(store.Get(key),
                  it != model.end() ? std::optional<Bytes>(it->second)
                                    : pristine(key));
      } else {
        model.clear();
        store.Reset();
        EXPECT_EQ(store.bytes(), 0u);
      }
      ASSERT_EQ(store.materialized_size(), model.size());
      const std::vector<std::pair<std::string, Bytes>> want(model.begin(),
                                                            model.end());
      ASSERT_EQ(store.Snapshot(), want);
      ASSERT_EQ(store.StateFingerprint(), ModelFingerprint(model));
      size_t live = 0;
      for (const auto& [k, v] : model)
        live += VarintSize(k.size()) + VarintSize(v.size()) + k.size() +
                v.size();
      const size_t index = index_bytes(model.size());
      ASSERT_GE(store.bytes(), index + live);
      ASSERT_LT(store.bytes(), index + 2 * live + KvStore::kBlockBytes);
    }
    // Values changed size often enough that the store rewrote its rows.
    EXPECT_GT(compactions, 10);
  }
}

// What every replica holds after fixed seeded batches, pinned across
// commits: a change to the store or to execution that moves a single row
// moves these. Small tables, so batches conflict and rows are overwritten.
// StateFingerprint hashes keys with std::hash, so the constants are
// libstdc++'s.
TEST(KvStoreTest, WorkloadBatchesKeepPinnedFingerprints) {
  struct Pin {
    WorkloadKind kind;
    double scale;
    size_t rows;
    uint64_t fingerprint;
  };
  const Pin kPins[] = {
      {WorkloadKind::kYcsbA, 0.001, 492, 17256425587616047696ULL},
      {WorkloadKind::kSmallBank, 0.0001, 198, 6418213030363553448ULL},
      {WorkloadKind::kTpcc, 4.0 / 128, 10616, 8342823885725132220ULL},
  };
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(WorkloadKindName(pin.kind));
    auto workload = MakeWorkload(pin.kind, pin.scale);
    KvStore store;
    workload->InstallInitialState(&store);
    AriaExecutor executor(&store, workload->MakeFactory());
    Rng rng(25);
    uint64_t id = 0;
    for (int b = 0; b < 40; ++b) {
      std::vector<Transaction> batch;
      for (int t = 0; t < 38; ++t)
        batch.push_back(Transaction{id++, 0, 0, workload->NextPayload(rng)});
      (void)executor.ExecuteBatch(batch);
    }
    EXPECT_EQ(store.materialized_size(), pin.rows);
    EXPECT_EQ(store.StateFingerprint(), pin.fingerprint);
  }
}

// --------------------------------------------------------------- Aria

/// Scripted test procedure: reads then writes fixed keys.
class ScriptProcedure final : public Procedure {
 public:
  ScriptProcedure(std::vector<std::string> reads,
                  std::vector<std::pair<std::string, std::string>> writes,
                  bool logic_abort = false)
      : reads_(std::move(reads)), writes_(std::move(writes)),
        logic_abort_(logic_abort) {}

  Status Execute(TxnContext* ctx) override {
    for (const auto& k : reads_) (void)ctx->Get(k);
    if (logic_abort_) {
      ctx->AbortLogic();
      return Status::OK();
    }
    for (const auto& [k, v] : writes_) ctx->Put(k, ToBytes(v));
    return Status::OK();
  }

 private:
  std::vector<std::string> reads_;
  std::vector<std::pair<std::string, std::string>> writes_;
  bool logic_abort_;
};

/// Payload codec for scripted procedures:
///   r-count, [keys], w-count, [key,value], abort-flag.
Bytes ScriptPayload(std::vector<std::string> reads,
                    std::vector<std::pair<std::string, std::string>> writes,
                    bool logic_abort = false) {
  BinaryWriter w;
  w.PutVarint(reads.size());
  for (auto& k : reads) w.PutString(k);
  w.PutVarint(writes.size());
  for (auto& [k, v] : writes) {
    w.PutString(k);
    w.PutString(v);
  }
  w.PutU8(logic_abort ? 1 : 0);
  return w.Release();
}

Result<std::unique_ptr<Procedure>> ParseScript(const Transaction& txn) {
  BinaryReader r(txn.payload);
  uint64_t nr = 0, nw = 0;
  std::vector<std::string> reads;
  std::vector<std::pair<std::string, std::string>> writes;
  MASSBFT_RETURN_IF_ERROR(r.GetVarint(&nr));
  for (uint64_t i = 0; i < nr; ++i) {
    std::string k;
    MASSBFT_RETURN_IF_ERROR(r.GetString(&k));
    reads.push_back(std::move(k));
  }
  MASSBFT_RETURN_IF_ERROR(r.GetVarint(&nw));
  for (uint64_t i = 0; i < nw; ++i) {
    std::string k, v;
    MASSBFT_RETURN_IF_ERROR(r.GetString(&k));
    MASSBFT_RETURN_IF_ERROR(r.GetString(&v));
    writes.emplace_back(std::move(k), std::move(v));
  }
  uint8_t abort_flag = 0;
  MASSBFT_RETURN_IF_ERROR(r.GetU8(&abort_flag));
  return std::unique_ptr<Procedure>(std::make_unique<ScriptProcedure>(
      std::move(reads), std::move(writes), abort_flag != 0));
}

Transaction ScriptTxn(uint64_t id, Bytes payload) {
  Transaction txn;
  txn.id = id;
  txn.payload = std::move(payload);
  return txn;
}

class AriaTest : public ::testing::Test {
 protected:
  KvStore store_;
  AriaExecutor executor_{&store_, ParseScript, /*reordering=*/true};
  AriaExecutor classic_{&store_, ParseScript, /*reordering=*/false};
};

TEST_F(AriaTest, IndependentTransactionsAllCommit) {
  std::vector<Transaction> batch = {
      ScriptTxn(1, ScriptPayload({}, {{"a", "1"}})),
      ScriptTxn(2, ScriptPayload({}, {{"b", "2"}})),
      ScriptTxn(3, ScriptPayload({"a"}, {{"c", "3"}})),
  };
  AriaBatchResult r = executor_.ExecuteBatch(batch);
  EXPECT_EQ(r.committed, 3);
  EXPECT_TRUE(r.conflict_aborts.empty());
  EXPECT_EQ(*store_.Get("a"), ToBytes("1"));
  EXPECT_EQ(*store_.Get("b"), ToBytes("2"));
  // Txn 3 read the snapshot (a absent) but its write still lands.
  EXPECT_EQ(*store_.Get("c"), ToBytes("3"));
}

TEST_F(AriaTest, WawAbortsHigherIndexedWriter) {
  std::vector<Transaction> batch = {
      ScriptTxn(1, ScriptPayload({}, {{"k", "first"}})),
      ScriptTxn(2, ScriptPayload({}, {{"k", "second"}})),
  };
  AriaBatchResult r = executor_.ExecuteBatch(batch);
  EXPECT_EQ(r.committed, 1);
  ASSERT_EQ(r.conflict_aborts.size(), 1u);
  EXPECT_EQ(r.conflict_aborts[0], 1u);  // The second writer aborts.
  EXPECT_EQ(*store_.Get("k"), ToBytes("first"));
}

TEST_F(AriaTest, BlindWritersAndReadersCoexistWithReordering) {
  // RAW-only (T2 reads T1's written key) commits under reordering: T2 is
  // logically ordered before T1 using the snapshot value.
  store_.Put("k", ToBytes("old"));
  std::vector<Transaction> batch = {
      ScriptTxn(1, ScriptPayload({}, {{"k", "new"}})),
      ScriptTxn(2, ScriptPayload({"k"}, {{"out", "x"}})),
  };
  AriaBatchResult r = executor_.ExecuteBatch(batch);
  EXPECT_EQ(r.committed, 2);
  EXPECT_EQ(*store_.Get("k"), ToBytes("new"));
}

TEST_F(AriaTest, ClassicModeAbortsOnRaw) {
  store_.Put("k", ToBytes("old"));
  std::vector<Transaction> batch = {
      ScriptTxn(1, ScriptPayload({}, {{"k", "new"}})),
      ScriptTxn(2, ScriptPayload({"k"}, {{"out", "x"}})),
  };
  AriaBatchResult r = classic_.ExecuteBatch(batch);
  EXPECT_EQ(r.committed, 1);
  ASSERT_EQ(r.conflict_aborts.size(), 1u);
  EXPECT_EQ(r.conflict_aborts[0], 1u);
}

TEST_F(AriaTest, RawAndWarTogetherAbortEvenWithReordering) {
  // T2 reads a key T1 writes (RAW) and writes a key T1 reads (WAR):
  // unreorderable -> abort (the TPC-C Payment hotspot pattern).
  store_.Put("w", ToBytes("0"));
  std::vector<Transaction> batch = {
      ScriptTxn(1, ScriptPayload({"w"}, {{"w", "1"}})),
      ScriptTxn(2, ScriptPayload({"w"}, {{"w", "2"}})),
  };
  AriaBatchResult r = executor_.ExecuteBatch(batch);
  EXPECT_EQ(r.committed, 1);
  ASSERT_EQ(r.conflict_aborts.size(), 1u);
  EXPECT_EQ(*store_.Get("w"), ToBytes("1"));
}

TEST_F(AriaTest, LogicAbortIsNotRetried) {
  std::vector<Transaction> batch = {
      ScriptTxn(1, ScriptPayload({}, {{"a", "1"}}, /*logic_abort=*/true)),
      ScriptTxn(2, ScriptPayload({}, {{"b", "2"}})),
  };
  AriaBatchResult r = executor_.ExecuteBatch(batch);
  EXPECT_EQ(r.committed, 1);
  EXPECT_EQ(r.logic_aborts, 1);
  EXPECT_TRUE(r.conflict_aborts.empty());
  EXPECT_FALSE(store_.Get("a").has_value());  // No effects.
}

TEST_F(AriaTest, MalformedPayloadCountsAsLogicAbort) {
  Transaction bad;
  bad.id = 1;
  bad.payload = {0xFF, 0xFF, 0xFF};
  AriaBatchResult r = executor_.ExecuteBatch({bad});
  EXPECT_EQ(r.committed, 0);
  EXPECT_EQ(r.logic_aborts, 1);
}

TEST_F(AriaTest, ReadYourOwnWritesWithinTransaction) {
  class RmwProcedure final : public Procedure {
   public:
    Status Execute(TxnContext* ctx) override {
      ctx->Put("x", ToBytes("mine"));
      auto v = ctx->Get("x");
      EXPECT_TRUE(v.has_value());
      EXPECT_EQ(*v, ToBytes("mine"));
      return Status::OK();
    }
  };
  KvStore store;
  AriaExecutor exec(
      &store,
      [](const Transaction&) -> Result<std::unique_ptr<Procedure>> {
        return std::unique_ptr<Procedure>(std::make_unique<RmwProcedure>());
      });
  Transaction txn;
  AriaBatchResult r = exec.ExecuteBatch({txn});
  EXPECT_EQ(r.committed, 1);
}

TEST_F(AriaTest, SnapshotIsolationWithinBatch) {
  // All transactions read the pre-batch snapshot, regardless of earlier
  // writers in the same batch.
  store_.Put("k", ToBytes("snapshot"));
  class SnapshotCheck final : public Procedure {
   public:
    Status Execute(TxnContext* ctx) override {
      auto v = ctx->Get("k");
      EXPECT_EQ(*v, ToBytes("snapshot"));
      return Status::OK();
    }
  };
  std::vector<Transaction> batch = {
      ScriptTxn(1, ScriptPayload({}, {{"k", "overwritten"}})),
      ScriptTxn(2, ScriptPayload({"k"}, {})),  // Read-only: sees snapshot.
  };
  AriaBatchResult r = executor_.ExecuteBatch(batch);
  EXPECT_EQ(r.committed, 2);
}

/// Determinism property: the same batch against the same initial state
/// yields identical results and final state (what lets every replica
/// execute independently).
class AriaDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AriaDeterminismTest, IdenticalInputsIdenticalOutcome) {
  Rng rng(GetParam());
  std::vector<Transaction> batch;
  for (int i = 0; i < 200; ++i) {
    std::vector<std::string> reads;
    std::vector<std::pair<std::string, std::string>> writes;
    int nr = static_cast<int>(rng.NextBelow(3));
    int nw = static_cast<int>(rng.NextBelow(3));
    for (int k = 0; k < nr; ++k)
      reads.push_back("key" + std::to_string(rng.NextBelow(20)));
    for (int k = 0; k < nw; ++k)
      writes.push_back({"key" + std::to_string(rng.NextBelow(20)),
                        std::to_string(rng.NextU64())});
    batch.push_back(
        ScriptTxn(static_cast<uint64_t>(i), ScriptPayload(reads, writes)));
  }

  KvStore s1, s2;
  AriaExecutor e1(&s1, ParseScript), e2(&s2, ParseScript);
  AriaBatchResult r1 = e1.ExecuteBatch(batch);
  AriaBatchResult r2 = e2.ExecuteBatch(batch);
  EXPECT_EQ(r1.committed, r2.committed);
  EXPECT_EQ(r1.conflict_aborts, r2.conflict_aborts);
  for (int k = 0; k < 20; ++k) {
    std::string key = "key" + std::to_string(k);
    EXPECT_EQ(s1.Get(key), s2.Get(key)) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AriaDeterminismTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST_F(AriaTest, CommittedWritersHaveDisjointWriteSets) {
  // Three writers to one key: exactly one commits.
  std::vector<Transaction> batch = {
      ScriptTxn(1, ScriptPayload({}, {{"hot", "a"}})),
      ScriptTxn(2, ScriptPayload({}, {{"hot", "b"}})),
      ScriptTxn(3, ScriptPayload({}, {{"hot", "c"}})),
  };
  AriaBatchResult r = executor_.ExecuteBatch(batch);
  EXPECT_EQ(r.committed, 1);
  EXPECT_EQ(r.conflict_aborts.size(), 2u);
  EXPECT_EQ(*store_.Get("hot"), ToBytes("a"));
}

// ------------------------------------------------ Reference executor

/// Reference Aria batch: the same rules as AriaExecutor, written with a
/// std::set read set and a std::map write set per transaction and two
/// std::map reservation tables, each survivor's writes copied into the
/// store as its verdict is reached. The oracle tests below hold the
/// production executor to it, verdict for verdict and byte for byte.
AriaBatchResult ReferenceExecuteBatch(KvStore* store,
                                      const ProcedureFactory& factory,
                                      bool reordering,
                                      const std::vector<Transaction>& txns) {
  struct Sets {
    std::set<std::string> reads;
    std::map<std::string, Bytes> writes;
  };
  AriaBatchResult result;
  const size_t n = txns.size();

  // Phase 1: execute everything against the batch-start snapshot.
  std::vector<Sets> sets(n);
  std::vector<bool> ok(n, false);
  for (size_t i = 0; i < n; ++i) {
    auto proc = factory(txns[i]);
    if (!proc.ok()) continue;
    TxnContext ctx(store);
    Status s = (*proc)->Execute(&ctx);
    ok[i] = s.ok() && !ctx.logic_aborted();
    sets[i].reads.insert(ctx.reads().begin(), ctx.reads().end());
    for (const auto& [key, value] : ctx.writes()) sets[i].writes[key] = value;
  }

  // Phase 2: reservations — the lowest transaction index wins each key.
  std::map<std::string, size_t> write_reservation;
  std::map<std::string, size_t> read_reservation;
  for (size_t i = 0; i < n; ++i) {
    if (!ok[i]) continue;
    for (const auto& [key, value] : sets[i].writes) {
      auto it = write_reservation.find(key);
      if (it == write_reservation.end() || it->second > i)
        write_reservation[key] = i;
    }
    for (const auto& key : sets[i].reads) {
      auto it = read_reservation.find(key);
      if (it == read_reservation.end() || it->second > i)
        read_reservation[key] = i;
    }
  }

  // Phase 3: commit decision and install.
  for (size_t i = 0; i < n; ++i) {
    if (!ok[i]) {
      ++result.logic_aborts;
      continue;
    }
    bool waw = false, raw = false, war = false;
    for (const auto& [key, value] : sets[i].writes) {
      auto w = write_reservation.find(key);
      if (w != write_reservation.end() && w->second < i) waw = true;
      auto r = read_reservation.find(key);
      if (r != read_reservation.end() && r->second < i) war = true;
      if (waw) break;
    }
    if (!waw) {
      for (const auto& key : sets[i].reads) {
        auto w = write_reservation.find(key);
        if (w != write_reservation.end() && w->second < i) {
          raw = true;
          break;
        }
      }
    }
    bool conflict = reordering ? (waw || (raw && war)) : (waw || raw);
    if (conflict) {
      result.conflict_aborts.push_back(i);
      continue;
    }
    for (const auto& [key, value] : sets[i].writes) store->Put(key, value);
    ++result.committed;
  }
  return result;
}

/// One production executor and the reference, each over its own store,
/// fed the same batches.
class OraclePair {
 public:
  /// `make_factory` builds a procedure factory for a given store;
  /// `install` registers the initial state on a store.
  OraclePair(const std::function<ProcedureFactory(const KvStore*)>&
                 make_factory,
             const std::function<void(KvStore*)>& install, bool reordering)
      : reference_factory_(make_factory(&reference_store_)),
        executor_(&store_, make_factory(&store_), reordering),
        reordering_(reordering) {
    install(&store_);
    install(&reference_store_);
  }

  /// Runs `batch` on both sides and checks that the results and the
  /// stores match; returns the result.
  AriaBatchResult RunAndCompare(const std::vector<Transaction>& batch) {
    AriaBatchResult want = ReferenceExecuteBatch(
        &reference_store_, reference_factory_, reordering_, batch);
    AriaBatchResult got = executor_.ExecuteBatch(batch);
    EXPECT_EQ(got.committed, want.committed);
    EXPECT_EQ(got.conflict_aborts, want.conflict_aborts);
    EXPECT_EQ(got.logic_aborts, want.logic_aborts);
    EXPECT_EQ(store_.Snapshot(), reference_store_.Snapshot());
    return got;
  }

 private:
  KvStore store_;
  KvStore reference_store_;
  ProcedureFactory reference_factory_;
  AriaExecutor executor_;
  bool reordering_;
};

/// Random read/write sequence for the oracle tests. Each written value
/// folds in everything the transaction read before it, so the final state
/// depends on what every Get returned; each Get is also checked against
/// the transaction's own earlier writes and the batch-start store.
class OpScriptProcedure final : public Procedure {
 public:
  struct Op {
    bool write = false;
    std::string key;
    std::string value;
  };

  OpScriptProcedure(const KvStore* snapshot, std::vector<Op> ops,
                    bool logic_abort)
      : snapshot_(snapshot), ops_(std::move(ops)), logic_abort_(logic_abort) {}

  Status Execute(TxnContext* ctx) override {
    std::map<std::string, Bytes> own;
    uint64_t folded = 0;
    for (Op& op : ops_) {
      if (op.write) {
        Bytes value = ToBytes(op.value + ":" + std::to_string(folded));
        own[op.key] = value;
        ctx->Put(std::move(op.key), std::move(value));
        continue;
      }
      std::optional<Bytes> got = ctx->Get(op.key);
      auto it = own.find(op.key);
      std::optional<Bytes> want =
          it != own.end() ? std::optional<Bytes>(it->second)
                          : snapshot_->Get(op.key);
      EXPECT_EQ(got, want) << op.key;
      folded = folded * 131 + (got.has_value() ? got->size() + 1 : 0);
      if (got.has_value())
        for (uint8_t b : *got) folded = folded * 131 + b;
    }
    if (logic_abort_) ctx->AbortLogic();
    return Status::OK();
  }

 private:
  const KvStore* snapshot_;
  std::vector<Op> ops_;
  bool logic_abort_;
};

/// Payload: op count, then per op {kind, key, value if a write}, then the
/// logic-abort flag. Any strict prefix fails to parse.
Bytes OpScriptPayload(const std::vector<OpScriptProcedure::Op>& ops,
                      bool logic_abort) {
  BinaryWriter w;
  w.PutVarint(ops.size());
  for (const auto& op : ops) {
    w.PutU8(op.write ? 1 : 0);
    w.PutString(op.key);
    if (op.write) w.PutString(op.value);
  }
  w.PutU8(logic_abort ? 1 : 0);
  return w.Release();
}

ProcedureFactory OpScriptFactory(const KvStore* snapshot) {
  return [snapshot](const Transaction& txn)
             -> Result<std::unique_ptr<Procedure>> {
    BinaryReader r(txn.payload);
    uint64_t count = 0;
    MASSBFT_RETURN_IF_ERROR(r.GetVarint(&count));
    std::vector<OpScriptProcedure::Op> ops;
    for (uint64_t i = 0; i < count; ++i) {
      OpScriptProcedure::Op op;
      uint8_t kind = 0;
      MASSBFT_RETURN_IF_ERROR(r.GetU8(&kind));
      op.write = kind != 0;
      MASSBFT_RETURN_IF_ERROR(r.GetString(&op.key));
      if (op.write) MASSBFT_RETURN_IF_ERROR(r.GetString(&op.value));
      ops.push_back(std::move(op));
    }
    uint8_t abort_flag = 0;
    MASSBFT_RETURN_IF_ERROR(r.GetU8(&abort_flag));
    return std::unique_ptr<Procedure>(std::make_unique<OpScriptProcedure>(
        snapshot, std::move(ops), abort_flag != 0));
  };
}

/// Random batch over a 12-key space: six keys within the 15-byte
/// small-string buffer and six beyond it. Small transactions over few
/// keys give duplicate reads, reads after the transaction's own write and
/// blind writes; ~5% of transactions logic-abort and ~3% are malformed.
std::vector<Transaction> RandomOpScriptBatch(Rng& rng, size_t size) {
  static const std::vector<std::string> kKeys = {
      "k0", "k1", "k2", "k3", "key-4", "key-5",
      "a-key-longer-than-sso-6", "a-key-longer-than-sso-7",
      "a-key-longer-than-sso-8", "a-key-longer-than-sso-9",
      "a-key-longer-than-sso-10", "a-key-longer-than-sso-11"};
  std::vector<Transaction> batch;
  for (size_t t = 0; t < size; ++t) {
    std::vector<OpScriptProcedure::Op> ops(rng.NextBelow(7));
    for (auto& op : ops) {
      op.write = rng.NextBool(0.5);
      op.key = kKeys[rng.NextBelow(kKeys.size())];
      if (op.write) op.value = std::to_string(rng.NextBelow(1000));
    }
    Bytes payload = OpScriptPayload(ops, rng.NextBool(0.05));
    if (rng.NextBool(0.03)) payload.resize(rng.NextBelow(payload.size()));
    batch.push_back(ScriptTxn(t, std::move(payload)));
  }
  return batch;
}

/// Pristine values for the long keys only, so reads see both synthesized
/// and absent keys.
void InstallLongKeyDefaults(KvStore* store) {
  store->SetDefaultValueFn([](std::string_view key) -> std::optional<Bytes> {
    if (key.size() <= 15) return std::nullopt;
    return ToBytes(std::string("pristine-") + std::string(key));
  });
}

class AriaOracleTest : public ::testing::TestWithParam<bool> {};

TEST_P(AriaOracleTest, RandomScriptsMatchReference) {
  const bool reordering = GetParam();
  Rng rng(reordering ? 17 : 18);
  int conflicts = 0, logic_aborts = 0;
  // 8,000 batches per mode, in 100 runs of 80 batches from a fresh store.
  for (int run = 0; run < 100; ++run) {
    OraclePair pair(OpScriptFactory, InstallLongKeyDefaults, reordering);
    for (int b = 0; b < 80; ++b) {
      auto batch = RandomOpScriptBatch(rng, 1 + rng.NextBelow(24));
      AriaBatchResult r = pair.RunAndCompare(batch);
      ASSERT_FALSE(HasFailure()) << "run " << run << " batch " << b;
      conflicts += static_cast<int>(r.conflict_aborts.size());
      logic_aborts += r.logic_aborts;
    }
  }
  // The inputs reached every verdict.
  EXPECT_GT(conflicts, 1000);
  EXPECT_GT(logic_aborts, 1000);
}

TEST_P(AriaOracleTest, WorkloadBatchesMatchReference) {
  const bool reordering = GetParam();
  // Small tables, so batches conflict; TPC-C over 4 warehouses.
  const std::pair<WorkloadKind, double> kWorkloads[] = {
      {WorkloadKind::kYcsbA, 0.001},
      {WorkloadKind::kSmallBank, 0.0001},
      {WorkloadKind::kTpcc, 4.0 / 128}};
  for (const auto& [kind, scale] : kWorkloads) {
    auto workload = MakeWorkload(kind, scale);
    for (int size : {8, 38, 270}) {
      SCOPED_TRACE(std::string(WorkloadKindName(kind)) + " batches of " +
                   std::to_string(size));
      OraclePair pair(
          [&workload](const KvStore*) { return workload->MakeFactory(); },
          [&workload](KvStore* store) { workload->InstallInitialState(store); },
          reordering);
      Rng rng(static_cast<uint64_t>(size));
      int conflicts = 0;
      for (int b = 0; b < 10; ++b) {
        std::vector<Transaction> batch;
        for (int t = 0; t < size; ++t)
          batch.push_back(ScriptTxn(static_cast<uint64_t>(t),
                                    workload->NextPayload(rng)));
        conflicts += static_cast<int>(
            pair.RunAndCompare(batch).conflict_aborts.size());
        ASSERT_FALSE(HasFailure()) << "batch " << b;
      }
      if (size == 270) {
        EXPECT_GT(conflicts, 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, AriaOracleTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Reordering" : "Classic";
                         });

}  // namespace
}  // namespace massbft
