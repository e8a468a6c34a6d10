#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <string>

#include "common/codec.h"
#include "crypto/sha256.h"
#include "db/aria.h"
#include "db/kv_store.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"
#include "workload/workload.h"
#include "workload/ycsb.h"

namespace massbft {
namespace {

class WorkloadFixture : public ::testing::TestWithParam<WorkloadKind> {
 protected:
  void SetUp() override {
    // TPC-C needs enough warehouses to avoid total hotspot serialization
    // in one Aria batch; the key-value workloads shrink further.
    double scale = GetParam() == WorkloadKind::kTpcc ? 0.5 : 0.01;
    workload_ = MakeWorkload(GetParam(), scale);
    ASSERT_NE(workload_, nullptr);
    workload_->InstallInitialState(&store_);
    executor_ = std::make_unique<AriaExecutor>(&store_,
                                               workload_->MakeFactory());
  }

  Transaction NextTxn(Rng& rng, uint64_t id) {
    Transaction txn;
    txn.id = id;
    txn.payload = workload_->NextPayload(rng);
    return txn;
  }

  std::unique_ptr<Workload> workload_;
  KvStore store_;
  std::unique_ptr<AriaExecutor> executor_;
};

TEST_P(WorkloadFixture, PayloadsParseAndExecute) {
  Rng rng(1);
  std::vector<Transaction> batch;
  for (int i = 0; i < 200; ++i) batch.push_back(NextTxn(rng, i));
  AriaBatchResult r = executor_->ExecuteBatch(batch);
  // Every transaction either commits, conflict-aborts, or business-aborts;
  // none may fail to parse (parse failure also lands in logic_aborts, so
  // bound it instead: parses must succeed for generated payloads).
  for (const Transaction& txn : batch)
    EXPECT_TRUE(workload_->Parse(txn.payload).ok());
  EXPECT_EQ(r.committed + static_cast<int>(r.conflict_aborts.size()) +
                r.logic_aborts,
            200);
  EXPECT_GT(r.committed, 100);
}

TEST_P(WorkloadFixture, PayloadSizesMatchPaper) {
  static const std::map<WorkloadKind, size_t> kExpected = {
      {WorkloadKind::kYcsbA, 201},
      {WorkloadKind::kYcsbB, 150},
      {WorkloadKind::kSmallBank, 108},
      {WorkloadKind::kTpcc, 232},
  };
  Rng rng(2);
  size_t expected = kExpected.at(GetParam());
  for (int i = 0; i < 100; ++i)
    EXPECT_GE(workload_->NextPayload(rng).size(), expected);
  // Average close to target: payloads are padded up to the paper's mean.
  double sum = 0;
  for (int i = 0; i < 500; ++i) sum += workload_->NextPayload(rng).size();
  EXPECT_LT(sum / 500.0, expected * 1.2);
}

TEST_P(WorkloadFixture, TruncatedPayloadRejected) {
  Rng rng(3);
  Bytes payload = workload_->NextPayload(rng);
  Bytes truncated(payload.begin(), payload.begin() + 3);
  EXPECT_FALSE(workload_->Parse(truncated).ok());
}

TEST_P(WorkloadFixture, DeterministicGeneration) {
  Rng a(7), b(7);
  double scale = GetParam() == WorkloadKind::kTpcc ? 0.5 : 0.01;
  auto w2 = MakeWorkload(GetParam(), scale);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(workload_->NextPayload(a), w2->NextPayload(b));
}

// What clients send, pinned across commits: SHA-256 over the first 1,000
// payloads of seed 1, each preceded by its length. DeterministicGeneration
// only compares two instances built from the same code, and the golden runs
// use SmallBank alone, so this is what pins YCSB generation for the figure
// benches. A change to generation re-records these digests on purpose.
TEST_P(WorkloadFixture, GenerationMatchesRecordedDigest) {
  static const std::map<WorkloadKind, std::string> kDigest = {
      {WorkloadKind::kYcsbA,
       "66a4cbfcffb92b42be6cc2ab0cfdd0eaf7c14468d2886c16b90f09902c548b4b"},
      {WorkloadKind::kYcsbB,
       "1a23429a8d299c4304d7def5ea01887165ca2a9e87091f4e8c4fd4b46a4d912e"},
      {WorkloadKind::kSmallBank,
       "02c581eaab4e72504cfefe56f28c1f86ab1661be5a9e96a0f93cb12a4cf38024"},
      {WorkloadKind::kTpcc,
       "d21c694f2ad40805aea85a2a89bb01af11965d693bba5be9f8975734c51be44e"},
  };
  Rng rng(1);
  Sha256 hash;
  for (int i = 0; i < 1000; ++i) {
    Bytes payload = workload_->NextPayload(rng);
    BinaryWriter length;
    length.PutU32(static_cast<uint32_t>(payload.size()));
    hash.Update(length.Release());
    hash.Update(payload);
  }
  Digest digest = hash.Finish();
  EXPECT_EQ(ToHex(digest.data(), digest.size()), kDigest.at(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadFixture,
                         ::testing::Values(WorkloadKind::kYcsbA,
                                           WorkloadKind::kYcsbB,
                                           WorkloadKind::kSmallBank,
                                           WorkloadKind::kTpcc));

// ----------------------------------------------------------- SmallBank

TEST(SmallBankTest, MoneyConservedAcrossBatches) {
  auto workload = MakeWorkload(WorkloadKind::kSmallBank, 0.0001);  // 100.
  KvStore store;
  workload->InstallInitialState(&store);
  AriaExecutor executor(&store, workload->MakeFactory());

  auto total = [&store]() {
    int64_t sum = 0;
    for (uint64_t a = 0; a < 100; ++a) {
      for (const std::string& key : {SmallBankWorkload::SavingsKey(a),
                                     SmallBankWorkload::CheckingKey(a)}) {
        auto v = store.Get(key);
        int64_t balance = 0;
        for (int i = 0; i < 8; ++i)
          balance |= static_cast<int64_t>((*v)[i]) << (8 * i);
        sum += balance;
      }
    }
    return sum;
  };

  // Only money-conserving ops: SendPayment (op 6) and Amalgamate (op 4)
  // move funds; Deposit/TransactSavings/WriteCheck mint or burn. Run the
  // full mix and check conservation violations only come from the minting
  // ops by replaying a transfer-only workload: craft payloads directly.
  int64_t before = total();
  Rng rng(11);
  std::vector<Transaction> batch;
  for (int i = 0; i < 100; ++i) {
    BinaryWriter w;
    w.PutU8(rng.NextBool(0.5) ? 6 : 4);  // SendPayment or Amalgamate.
    w.PutU64(rng.NextBelow(100));
    w.PutU64(rng.NextBelow(100));
    w.PutI64(static_cast<int64_t>(rng.NextBelow(1000)));
    Transaction txn;
    txn.id = static_cast<uint64_t>(i);
    txn.payload = w.Release();
    txn.payload.resize(108, 0);
    batch.push_back(std::move(txn));
  }
  executor.ExecuteBatch(batch);
  EXPECT_EQ(total(), before);
}

Transaction SmallBankTxn(uint8_t op, uint64_t a1, uint64_t a2,
                         int64_t amount) {
  BinaryWriter w;
  w.PutU8(op);
  w.PutU64(a1);
  w.PutU64(a2);
  w.PutI64(amount);
  Transaction txn;
  txn.payload = w.Release();
  txn.payload.resize(108, 0);
  return txn;
}

TEST(SmallBankTest, SendPaymentInsufficientFundsAborts) {
  SmallBankWorkload workload(100);
  KvStore store;
  workload.InstallInitialState(&store);
  AriaExecutor executor(&store, workload.MakeFactory());

  // Amalgamate (op 4) empties account 1 into account 2.
  EXPECT_EQ(executor.ExecuteBatch({SmallBankTxn(4, 1, 2, 1)}).committed, 1);
  // SendPayment (op 6) of $50 from the empty account.
  AriaBatchResult r = executor.ExecuteBatch({SmallBankTxn(6, 1, 3, 5000)});
  EXPECT_EQ(r.committed, 0);
  EXPECT_EQ(r.logic_aborts, 1);
}

// An amount outside what clients draw (1 .. 10,000 cents) is rejected when
// the payload is parsed: INT64_MAX would overflow the stored balance, which
// is undefined behaviour that differently built replicas need not agree on.
TEST(SmallBankTest, OutOfRangeAmountLogicAborts) {
  SmallBankWorkload workload(100);
  KvStore store;
  workload.InstallInitialState(&store);
  AriaExecutor executor(&store, workload.MakeFactory());
  // DepositChecking (op 2) at both ends of the range commits.
  AriaBatchResult ok = executor.ExecuteBatch(
      {SmallBankTxn(2, 1, 2, 1), SmallBankTxn(2, 3, 4, 10000)});
  EXPECT_EQ(ok.committed, 2);

  const auto before = store.Snapshot();
  for (int64_t amount : {std::numeric_limits<int64_t>::max(),
                         std::numeric_limits<int64_t>::min(), int64_t{0},
                         int64_t{-5}, int64_t{10001}}) {
    SCOPED_TRACE(amount);
    for (uint8_t op = 1; op <= 6; ++op) {
      AriaBatchResult r = executor.ExecuteBatch({SmallBankTxn(op, 1, 2, amount)});
      EXPECT_EQ(r.committed, 0);
      EXPECT_EQ(r.logic_aborts, 1);
    }
  }
  EXPECT_EQ(store.Snapshot(), before);
}

TEST(SmallBankTest, InitialBalancesDeterministic) {
  EXPECT_EQ(SmallBankWorkload::InitialBalance(42),
            SmallBankWorkload::InitialBalance(42));
  EXPECT_GE(SmallBankWorkload::InitialBalance(7), 10000);
}

// ----------------------------------------------------------------- TPC-C

TEST(TpccTest, NewOrderAdvancesDistrictOrderId) {
  TpccWorkload workload(4);
  KvStore store;
  workload.InstallInitialState(&store);
  AriaExecutor executor(&store, workload.MakeFactory());

  BinaryWriter w;
  w.PutU8(1);  // NewOrder.
  w.PutU32(0);
  w.PutU32(0);
  w.PutU32(5);
  w.PutU8(2);  // Two order lines.
  w.PutU32(10);
  w.PutU32(0);
  w.PutU8(3);
  w.PutU32(20);
  w.PutU32(0);
  w.PutU8(1);
  Transaction txn;
  txn.payload = w.Release();
  txn.payload.resize(232, 0);
  AriaBatchResult r = executor.ExecuteBatch({txn});
  EXPECT_EQ(r.committed, 1);

  auto district = store.Get(TpccWorkload::DistrictKey(0, 0));
  ASSERT_TRUE(district.has_value());
  int64_t next_o_id = 0;
  for (int i = 0; i < 8; ++i)
    next_o_id |= static_cast<int64_t>((*district)[i]) << (8 * i);
  EXPECT_EQ(next_o_id, TpccWorkload::kInitialNextOrderId + 1);
  // The order row was inserted under the pre-increment id.
  EXPECT_TRUE(store
                  .Get(TpccWorkload::OrderKey(
                      0, 0, TpccWorkload::kInitialNextOrderId))
                  .has_value());
  EXPECT_TRUE(store.Get(TpccWorkload::OrderLineKey(
                            0, 0, TpccWorkload::kInitialNextOrderId, 1))
                  .has_value());
}

TEST(TpccTest, PaymentUpdatesWarehouseDistrictCustomer) {
  TpccWorkload workload(4);
  KvStore store;
  workload.InstallInitialState(&store);
  AriaExecutor executor(&store, workload.MakeFactory());

  BinaryWriter w;
  w.PutU8(2);  // Payment.
  w.PutU32(1);
  w.PutU32(2);
  w.PutU32(3);
  w.PutI64(5000);
  Transaction txn;
  txn.payload = w.Release();
  txn.payload.resize(232, 0);
  AriaBatchResult r = executor.ExecuteBatch({txn});
  EXPECT_EQ(r.committed, 1);

  auto warehouse = store.Get(TpccWorkload::WarehouseKey(1));
  int64_t ytd = 0;
  for (int i = 0; i < 8; ++i)
    ytd |= static_cast<int64_t>((*warehouse)[i]) << (8 * i);
  EXPECT_EQ(ytd, 5000);

  auto customer = store.Get(TpccWorkload::CustomerKey(1, 2, 3));
  int64_t balance = 0;
  for (int i = 0; i < 8; ++i)
    balance |= static_cast<int64_t>((*customer)[i]) << (8 * i);
  EXPECT_EQ(balance, -1000 - 5000);
}

// A Payment amount outside what clients draw (100 .. 500,000 cents) is
// rejected when the payload is parsed, before it can overflow a row.
TEST(TpccTest, OutOfRangePaymentLogicAborts) {
  TpccWorkload workload(4);
  KvStore store;
  workload.InstallInitialState(&store);
  AriaExecutor executor(&store, workload.MakeFactory());
  auto payment = [](uint32_t c, int64_t amount) {
    BinaryWriter w;
    w.PutU8(2);  // Payment.
    w.PutU32(1);
    w.PutU32(2);
    w.PutU32(c);
    w.PutI64(amount);
    Transaction txn;
    txn.payload = w.Release();
    txn.payload.resize(232, 0);
    return txn;
  };
  // Both ends of the range commit (separate batches: same warehouse).
  EXPECT_EQ(executor.ExecuteBatch({payment(3, 100)}).committed, 1);
  EXPECT_EQ(executor.ExecuteBatch({payment(4, 500000)}).committed, 1);

  const auto before = store.Snapshot();
  for (int64_t amount : {std::numeric_limits<int64_t>::max(),
                         std::numeric_limits<int64_t>::min(), int64_t{0},
                         int64_t{99}, int64_t{500001}}) {
    SCOPED_TRACE(amount);
    AriaBatchResult r = executor.ExecuteBatch({payment(3, amount)});
    EXPECT_EQ(r.committed, 0);
    EXPECT_EQ(r.logic_aborts, 1);
  }
  EXPECT_EQ(store.Snapshot(), before);
}

TEST(TpccTest, PaymentsOnSameWarehouseConflictInBatch) {
  // The paper's abort-rate mechanism (Section VI-A): two Payments to the
  // same warehouse in one Aria batch collide (RAW ∧ WAR), one aborts.
  TpccWorkload workload(4);
  KvStore store;
  workload.InstallInitialState(&store);
  AriaExecutor executor(&store, workload.MakeFactory());

  auto payment = [](uint64_t id, uint32_t warehouse) {
    BinaryWriter w;
    w.PutU8(2);
    w.PutU32(warehouse);
    w.PutU32(0);
    w.PutU32(0);
    w.PutI64(100);
    Transaction txn;
    txn.id = id;
    txn.payload = w.Release();
    txn.payload.resize(232, 0);
    return txn;
  };
  AriaBatchResult r =
      executor.ExecuteBatch({payment(1, 2), payment(2, 2), payment(3, 3)});
  EXPECT_EQ(r.committed, 2);
  EXPECT_EQ(r.conflict_aborts.size(), 1u);
}

TEST(TpccTest, ItemPricesDeterministicAndBounded) {
  for (uint32_t item : {0u, 1u, 999u, 99999u}) {
    int64_t price = TpccWorkload::ItemPrice(item);
    EXPECT_GE(price, 100);
    EXPECT_LE(price, 10000);
    EXPECT_EQ(price, TpccWorkload::ItemPrice(item));
  }
}

// ------------------------------------------------------------------ YCSB

TEST(YcsbTest, VariantBIsReadHeavy) {
  YcsbWorkload workload(/*variant_a=*/false, 1000);
  Rng rng(5);
  int updates = 0;
  for (int i = 0; i < 2000; ++i) {
    Bytes payload = workload.NextPayload(rng);
    if (payload[0] == 2) ++updates;
  }
  // 5% +- noise.
  EXPECT_GT(updates, 40);
  EXPECT_LT(updates, 220);
}

TEST(YcsbTest, UpdateRoundTripsThroughStore) {
  YcsbWorkload workload(/*variant_a=*/true, 1000);
  KvStore store;
  workload.InstallInitialState(&store);
  AriaExecutor executor(&store, workload.MakeFactory());

  BinaryWriter w;
  w.PutU8(2);  // Update.
  w.PutU64(5);
  w.PutU8(3);
  Bytes value(100, 0x77);
  w.PutBytes(value);
  Transaction txn;
  txn.payload = w.Release();
  txn.payload.resize(201, 0);
  AriaBatchResult r = executor.ExecuteBatch({txn});
  EXPECT_EQ(r.committed, 1);
  EXPECT_EQ(*store.Get(YcsbWorkload::RowColKey(5, 3)), value);
}

TEST(YcsbTest, OutOfRangeKeysRejected) {
  YcsbWorkload workload(/*variant_a=*/true, 1000);
  BinaryWriter w;
  w.PutU8(1);
  w.PutU64(5000);  // Beyond the 1000-row table.
  w.PutU8(0);
  Bytes payload = w.Release();
  payload.resize(201, 0);
  EXPECT_FALSE(workload.Parse(payload).ok());
}

}  // namespace
}  // namespace massbft
