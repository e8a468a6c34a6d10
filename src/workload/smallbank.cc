#include "workload/smallbank.h"

#include <utility>

#include "common/codec.h"

namespace massbft {

namespace {

constexpr size_t kPayloadBytes = 108;  // Paper's average SmallBank txn size.
// The amounts NextPayload draws, in cents. Parse rejects any other, so a
// client cannot pick an amount that overflows a balance in execution.
constexpr int64_t kMinAmount = 1;
constexpr int64_t kMaxAmount = 10000;

enum SbOp : uint8_t {
  kBalance = 1,
  kDepositChecking = 2,
  kTransactSavings = 3,
  kAmalgamate = 4,
  kWriteCheck = 5,
  kSendPayment = 6,
};

int64_t ReadBalance(TxnContext* ctx, const std::string& key) {
  auto v = ctx->Get(key);
  if (!v.has_value() || v->size() != 8) return 0;
  int64_t balance = 0;
  for (int i = 0; i < 8; ++i)
    balance |= static_cast<int64_t>((*v)[i]) << (8 * i);
  return balance;
}

void WriteBalance(TxnContext* ctx, const std::string& key, int64_t balance) {
  Bytes v(8);
  for (int i = 0; i < 8; ++i)
    v[i] = static_cast<uint8_t>(static_cast<uint64_t>(balance) >> (8 * i));
  ctx->Put(key, std::move(v));
}

class SmallBankProcedure final : public Procedure {
 public:
  SmallBankProcedure(uint8_t op, uint64_t a1, uint64_t a2, int64_t amount)
      : op_(op), a1_(a1), a2_(a2), amount_(amount) {}

  Status Execute(TxnContext* ctx) override {
    std::string s1 = SmallBankWorkload::SavingsKey(a1_);
    std::string c1 = SmallBankWorkload::CheckingKey(a1_);
    switch (op_) {
      case kBalance: {
        (void)ReadBalance(ctx, s1);
        (void)ReadBalance(ctx, c1);
        break;
      }
      case kDepositChecking: {
        WriteBalance(ctx, c1, ReadBalance(ctx, c1) + amount_);
        break;
      }
      case kTransactSavings: {
        int64_t balance = ReadBalance(ctx, s1) + amount_;
        if (balance < 0) {
          ctx->AbortLogic();
          break;
        }
        WriteBalance(ctx, s1, balance);
        break;
      }
      case kAmalgamate: {
        std::string c2 = SmallBankWorkload::CheckingKey(a2_);
        int64_t total = ReadBalance(ctx, s1) + ReadBalance(ctx, c1);
        WriteBalance(ctx, s1, 0);
        WriteBalance(ctx, c1, 0);
        WriteBalance(ctx, c2, ReadBalance(ctx, c2) + total);
        break;
      }
      case kWriteCheck: {
        int64_t total = ReadBalance(ctx, s1) + ReadBalance(ctx, c1);
        // Overdraft penalty of $1 when the check exceeds the funds.
        int64_t deducted = amount_ + (total < amount_ ? 100 : 0);
        WriteBalance(ctx, c1, ReadBalance(ctx, c1) - deducted);
        break;
      }
      case kSendPayment: {
        std::string c2 = SmallBankWorkload::CheckingKey(a2_);
        int64_t from = ReadBalance(ctx, c1);
        if (from < amount_) {
          ctx->AbortLogic();
          break;
        }
        WriteBalance(ctx, c1, from - amount_);
        WriteBalance(ctx, c2, ReadBalance(ctx, c2) + amount_);
        break;
      }
      default:
        return Status::Corruption("bad smallbank opcode");
    }
    return Status::OK();
  }

 private:
  uint8_t op_;
  uint64_t a1_;
  uint64_t a2_;
  int64_t amount_;
};

}  // namespace

SmallBankWorkload::SmallBankWorkload(uint64_t num_accounts)
    : num_accounts_(num_accounts) {}

std::string SmallBankWorkload::SavingsKey(uint64_t account) {
  return "ss:" + std::to_string(account);
}
std::string SmallBankWorkload::CheckingKey(uint64_t account) {
  return "sc:" + std::to_string(account);
}

int64_t SmallBankWorkload::InitialBalance(uint64_t account) {
  // $100 .. $1123.50 deterministic in the account id, in cents.
  return 10000 + static_cast<int64_t>((account * 2654435761ULL) % 102351);
}

void SmallBankWorkload::InstallInitialState(KvStore* store) const {
  store->SetDefaultValueFn(
      [](std::string_view key) -> std::optional<Bytes> {
        if (key.size() < 3 || key[0] != 's' ||
            (key[1] != 's' && key[1] != 'c'))
          return std::nullopt;
        uint64_t account = 0;
        for (size_t i = 3; i < key.size(); ++i)
          account = account * 10 + static_cast<uint64_t>(key[i] - '0');
        int64_t balance = InitialBalance(account);
        Bytes v(8);
        for (int i = 0; i < 8; ++i)
          v[i] =
              static_cast<uint8_t>(static_cast<uint64_t>(balance) >> (8 * i));
        return v;
      });
}

Bytes SmallBankWorkload::NextPayload(Rng& rng) {
  uint8_t op = static_cast<uint8_t>(1 + rng.NextBelow(6));
  uint64_t a1 = rng.NextBelow(num_accounts_);
  uint64_t a2 = rng.NextBelow(num_accounts_);
  if (a2 == a1) a2 = (a1 + 1) % num_accounts_;
  int64_t amount = rng.NextInRange(kMinAmount, kMaxAmount);  // Up to $100.

  BinaryWriter w(32);
  w.PutU8(op);
  w.PutU64(a1);
  w.PutU64(a2);
  w.PutI64(amount);
  Bytes payload = w.Release();
  payload.resize(std::max(payload.size(), kPayloadBytes), 0);
  return payload;
}

Result<std::unique_ptr<Procedure>> SmallBankWorkload::Parse(
    const Bytes& payload) const {
  BinaryReader r(payload);
  uint8_t op = 0;
  uint64_t a1 = 0, a2 = 0;
  int64_t amount = 0;
  MASSBFT_RETURN_IF_ERROR(r.GetU8(&op));
  MASSBFT_RETURN_IF_ERROR(r.GetU64(&a1));
  MASSBFT_RETURN_IF_ERROR(r.GetU64(&a2));
  MASSBFT_RETURN_IF_ERROR(r.GetI64(&amount));
  if (op < kBalance || op > kSendPayment)
    return Status::Corruption("bad smallbank opcode");
  if (a1 >= num_accounts_ || a2 >= num_accounts_)
    return Status::Corruption("smallbank account out of range");
  if (amount < kMinAmount || amount > kMaxAmount)
    return Status::Corruption("smallbank amount out of range");
  return std::unique_ptr<Procedure>(
      std::make_unique<SmallBankProcedure>(op, a1, a2, amount));
}

}  // namespace massbft
