#include "workload/ycsb.h"

#include <utility>

#include "common/codec.h"

namespace massbft {

namespace {

constexpr uint8_t kOpRead = 1;
constexpr uint8_t kOpUpdate = 2;
constexpr size_t kPayloadBytesA = 201;  // Paper's average txn sizes.
constexpr size_t kPayloadBytesB = 150;

class YcsbProcedure final : public Procedure {
 public:
  YcsbProcedure(uint8_t op, uint64_t row, uint8_t col, Bytes value)
      : op_(op), row_(row), col_(col), value_(std::move(value)) {}

  Status Execute(TxnContext* ctx) override {
    std::string key = YcsbWorkload::RowColKey(row_, col_);
    if (op_ == kOpRead) {
      if (!ctx->Get(key).has_value()) ctx->AbortLogic();
    } else {
      ctx->Put(std::move(key), std::move(value_));
    }
    return Status::OK();
  }

 private:
  uint8_t op_;
  uint64_t row_;
  uint8_t col_;
  Bytes value_;
};

}  // namespace

YcsbWorkload::YcsbWorkload(bool variant_a, uint64_t num_rows)
    : variant_a_(variant_a), num_rows_(num_rows) {}

std::string YcsbWorkload::RowColKey(uint64_t row, int col) {
  std::string key = "y:";
  key += std::to_string(row);
  key += ':';
  key += std::to_string(col);
  return key;
}

void YcsbWorkload::InstallInitialState(KvStore* store) const {
  uint64_t num_rows = num_rows_;
  store->SetDefaultValueFn(
      [num_rows](std::string_view key) -> std::optional<Bytes> {
        if (key.size() < 2 || key[0] != 'y') return std::nullopt;
        // Deterministic pristine 100-byte row-column value.
        Bytes value(kValueBytes, 0);
        for (size_t i = 0; i < value.size(); ++i)
          value[i] = static_cast<uint8_t>(key[i % key.size()] + i);
        return value;
      });
}

Bytes YcsbWorkload::NextPayload(Rng& rng) {
  if (!zipf_) zipf_.emplace(num_rows_, 0.99);
  uint64_t row = zipf_->Next(rng);
  uint8_t col = static_cast<uint8_t>(rng.NextBelow(kNumColumns));
  double write_fraction = variant_a_ ? 0.5 : 0.05;
  bool is_update = rng.NextBool(write_fraction);

  BinaryWriter w(256);
  w.PutU8(is_update ? kOpUpdate : kOpRead);
  w.PutU64(row);
  w.PutU8(col);
  if (is_update) {
    Bytes value(kValueBytes);
    for (auto& b : value) b = static_cast<uint8_t>(rng.NextBelow(256));
    w.PutBytes(value);
  }
  Bytes payload = w.Release();
  // Pad to the paper's average size so WAN accounting matches.
  payload.resize(std::max(payload.size(),
                          variant_a_ ? kPayloadBytesA : kPayloadBytesB),
                 0);
  return payload;
}

Result<std::unique_ptr<Procedure>> YcsbWorkload::Parse(
    const Bytes& payload) const {
  BinaryReader r(payload);
  uint8_t op = 0;
  uint64_t row = 0;
  uint8_t col = 0;
  MASSBFT_RETURN_IF_ERROR(r.GetU8(&op));
  MASSBFT_RETURN_IF_ERROR(r.GetU64(&row));
  MASSBFT_RETURN_IF_ERROR(r.GetU8(&col));
  if (op != kOpRead && op != kOpUpdate)
    return Status::Corruption("bad ycsb opcode");
  if (row >= num_rows_ || col >= kNumColumns)
    return Status::Corruption("ycsb key out of range");
  Bytes value;
  if (op == kOpUpdate) MASSBFT_RETURN_IF_ERROR(r.GetBytes(&value));
  return std::unique_ptr<Procedure>(
      std::make_unique<YcsbProcedure>(op, row, col, std::move(value)));
}

}  // namespace massbft
