#include "workload/tpcc.h"

#include <utility>

#include "common/codec.h"

namespace massbft {

namespace {

constexpr size_t kPayloadBytes = 232;  // Paper's average TPC-C txn size.
constexpr uint8_t kOpNewOrder = 1;
constexpr uint8_t kOpPayment = 2;
constexpr int kMaxOrderLines = 15;
// The Payment amounts NextPayload draws, in cents ($1 .. $5000). Parse
// rejects any other, so a client cannot pick an amount that overflows a
// row in execution.
constexpr int64_t kMinPayment = 100;
constexpr int64_t kMaxPayment = 500000;

// ---- Row codecs (fixed-width binary structs). ----

int64_t GetI64At(const Bytes& v, size_t off) {
  int64_t x = 0;
  for (int i = 0; i < 8; ++i)
    x |= static_cast<int64_t>(v[off + i]) << (8 * i);
  return x;
}

void PutI64At(Bytes& v, size_t off, int64_t x) {
  for (int i = 0; i < 8; ++i)
    v[off + i] = static_cast<uint8_t>(static_cast<uint64_t>(x) >> (8 * i));
}

struct NewOrderItem {
  uint32_t item_id;
  uint32_t supply_w;
  uint8_t quantity;
};

class NewOrderProcedure final : public Procedure {
 public:
  NewOrderProcedure(uint32_t w, uint32_t d, uint32_t c,
                    std::vector<NewOrderItem> items)
      : w_(w), d_(d), c_(c), items_(std::move(items)) {}

  Status Execute(TxnContext* ctx) override {
    // District row: {next_o_id i64, ytd i64}. The next_o_id bump is the
    // per-district serialization point.
    std::string dkey = TpccWorkload::DistrictKey(w_, d_);
    auto district = ctx->Get(dkey);
    if (!district.has_value() || district->size() != 16) {
      ctx->AbortLogic();
      return Status::OK();
    }
    int64_t o_id = GetI64At(*district, 0);
    PutI64At(*district, 0, o_id + 1);
    ctx->Put(std::move(dkey), std::move(*district));

    int64_t total = 0;
    int line = 0;
    for (const NewOrderItem& item : items_) {
      // Item row: {price i64} (read-only catalog).
      auto item_row = ctx->Get(TpccWorkload::ItemKey(item.item_id));
      if (!item_row.has_value() || item_row->size() != 8) {
        ctx->AbortLogic();  // TPC-C: 1% of NewOrders roll back on bad item.
        return Status::OK();
      }
      int64_t price = GetI64At(*item_row, 0);

      // Stock row: {quantity i64, ytd i64, order_cnt i64}.
      std::string skey = TpccWorkload::StockKey(item.supply_w, item.item_id);
      auto stock = ctx->Get(skey);
      if (!stock.has_value() || stock->size() != 24) {
        ctx->AbortLogic();
        return Status::OK();
      }
      int64_t quantity = GetI64At(*stock, 0);
      quantity = quantity >= item.quantity + 10
                     ? quantity - item.quantity
                     : quantity - item.quantity + 91;
      PutI64At(*stock, 0, quantity);
      PutI64At(*stock, 8, GetI64At(*stock, 8) + item.quantity);
      PutI64At(*stock, 16, GetI64At(*stock, 16) + 1);
      ctx->Put(std::move(skey), std::move(*stock));

      int64_t amount = price * item.quantity;
      total += amount;
      // Order line insert: {item i64, qty i64, amount i64}.
      Bytes ol(24);
      PutI64At(ol, 0, item.item_id);
      PutI64At(ol, 8, item.quantity);
      PutI64At(ol, 16, amount);
      ctx->Put(TpccWorkload::OrderLineKey(w_, d_, static_cast<uint32_t>(o_id),
                                          line++),
               std::move(ol));
    }

    // Order insert: {customer i64, line count i64, total i64}.
    Bytes order(24);
    PutI64At(order, 0, c_);
    PutI64At(order, 8, static_cast<int64_t>(items_.size()));
    PutI64At(order, 16, total);
    ctx->Put(TpccWorkload::OrderKey(w_, d_, static_cast<uint32_t>(o_id)),
             std::move(order));
    return Status::OK();
  }

 private:
  uint32_t w_;
  uint32_t d_;
  uint32_t c_;
  std::vector<NewOrderItem> items_;
};

class PaymentProcedure final : public Procedure {
 public:
  PaymentProcedure(uint32_t w, uint32_t d, uint32_t c, int64_t amount)
      : w_(w), d_(d), c_(c), amount_(amount) {}

  Status Execute(TxnContext* ctx) override {
    // Warehouse row: {ytd i64} — the 128-row hotspot.
    std::string wkey = TpccWorkload::WarehouseKey(w_);
    auto warehouse = ctx->Get(wkey);
    if (!warehouse.has_value() || warehouse->size() != 8) {
      ctx->AbortLogic();
      return Status::OK();
    }
    PutI64At(*warehouse, 0, GetI64At(*warehouse, 0) + amount_);
    ctx->Put(std::move(wkey), std::move(*warehouse));

    std::string dkey = TpccWorkload::DistrictKey(w_, d_);
    auto district = ctx->Get(dkey);
    if (!district.has_value() || district->size() != 16) {
      ctx->AbortLogic();
      return Status::OK();
    }
    PutI64At(*district, 8, GetI64At(*district, 8) + amount_);
    ctx->Put(std::move(dkey), std::move(*district));

    // Customer row: {balance i64, ytd_payment i64, payment_cnt i64}.
    std::string ckey = TpccWorkload::CustomerKey(w_, d_, c_);
    auto customer = ctx->Get(ckey);
    if (!customer.has_value() || customer->size() != 24) {
      ctx->AbortLogic();
      return Status::OK();
    }
    PutI64At(*customer, 0, GetI64At(*customer, 0) - amount_);
    PutI64At(*customer, 8, GetI64At(*customer, 8) + amount_);
    PutI64At(*customer, 16, GetI64At(*customer, 16) + 1);
    ctx->Put(std::move(ckey), std::move(*customer));
    return Status::OK();
  }

 private:
  uint32_t w_;
  uint32_t d_;
  uint32_t c_;
  int64_t amount_;
};

}  // namespace

TpccWorkload::TpccWorkload(int num_warehouses)
    : num_warehouses_(num_warehouses) {}

std::string TpccWorkload::WarehouseKey(uint32_t w) {
  return "tw:" + std::to_string(w);
}
std::string TpccWorkload::DistrictKey(uint32_t w, uint32_t d) {
  return "td:" + std::to_string(w) + ":" + std::to_string(d);
}
std::string TpccWorkload::CustomerKey(uint32_t w, uint32_t d, uint32_t c) {
  return "tc:" + std::to_string(w) + ":" + std::to_string(d) + ":" +
         std::to_string(c);
}
std::string TpccWorkload::StockKey(uint32_t w, uint32_t item) {
  return "ts:" + std::to_string(w) + ":" + std::to_string(item);
}
std::string TpccWorkload::ItemKey(uint32_t item) {
  return "ti:" + std::to_string(item);
}
std::string TpccWorkload::OrderKey(uint32_t w, uint32_t d, uint32_t o) {
  return "to:" + std::to_string(w) + ":" + std::to_string(d) + ":" +
         std::to_string(o);
}
std::string TpccWorkload::OrderLineKey(uint32_t w, uint32_t d, uint32_t o,
                                       int line) {
  return "tl:" + std::to_string(w) + ":" + std::to_string(d) + ":" +
         std::to_string(o) + ":" + std::to_string(line);
}

int64_t TpccWorkload::ItemPrice(uint32_t item) {
  return 100 + static_cast<int64_t>((item * 2654435761ULL) % 9901);
}

void TpccWorkload::InstallInitialState(KvStore* store) const {
  store->SetDefaultValueFn(
      [](std::string_view key) -> std::optional<Bytes> {
        if (key.size() < 3 || key[0] != 't') return std::nullopt;
        char table = key[1];
        switch (table) {
          case 'w': {  // Warehouse: ytd = 0.
            Bytes v(8, 0);
            return v;
          }
          case 'd': {  // District: next_o_id = 3001, ytd = 0.
            Bytes v(16, 0);
            PutI64At(v, 0, kInitialNextOrderId);
            return v;
          }
          case 'c': {  // Customer: balance = -10.00, ytd = 10.00, cnt = 1.
            Bytes v(24, 0);
            PutI64At(v, 0, -1000);
            PutI64At(v, 8, 1000);
            PutI64At(v, 16, 1);
            return v;
          }
          case 's': {  // Stock: quantity 10..100 deterministic, ytd 0, cnt 0.
            uint64_t h = 1469598103934665603ULL;
            for (char c : key) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
            Bytes v(24, 0);
            PutI64At(v, 0, 10 + static_cast<int64_t>(h % 91));
            return v;
          }
          case 'i': {  // Item: deterministic price.
            uint32_t item = 0;
            for (size_t i = 3; i < key.size(); ++i)
              item = item * 10 + static_cast<uint32_t>(key[i] - '0');
            Bytes v(8, 0);
            PutI64At(v, 0, ItemPrice(item));
            return v;
          }
          default:
            return std::nullopt;  // Orders/lines do not exist until inserted.
        }
      });
}

Bytes TpccWorkload::NextPayload(Rng& rng) {
  bool new_order = rng.NextBool(0.5);
  uint32_t w = static_cast<uint32_t>(rng.NextBelow(num_warehouses_));
  uint32_t d = static_cast<uint32_t>(rng.NextBelow(kDistrictsPerWarehouse));
  uint32_t c = static_cast<uint32_t>(rng.NextBelow(kCustomersPerDistrict));

  BinaryWriter writer(256);
  if (new_order) {
    writer.PutU8(kOpNewOrder);
    writer.PutU32(w);
    writer.PutU32(d);
    writer.PutU32(c);
    int ol_cnt = static_cast<int>(5 + rng.NextBelow(11));  // 5..15 lines.
    writer.PutU8(static_cast<uint8_t>(ol_cnt));
    for (int i = 0; i < ol_cnt; ++i) {
      writer.PutU32(static_cast<uint32_t>(rng.NextBelow(kNumItems)));
      // 1% remote warehouse, per the TPC-C spec.
      uint32_t supply_w =
          rng.NextBool(0.01)
              ? static_cast<uint32_t>(rng.NextBelow(num_warehouses_))
              : w;
      writer.PutU32(supply_w);
      writer.PutU8(static_cast<uint8_t>(1 + rng.NextBelow(10)));
    }
  } else {
    writer.PutU8(kOpPayment);
    writer.PutU32(w);
    writer.PutU32(d);
    writer.PutU32(c);
    writer.PutI64(rng.NextInRange(kMinPayment, kMaxPayment));
  }
  Bytes payload = writer.Release();
  payload.resize(std::max(payload.size(), kPayloadBytes), 0);
  return payload;
}

Result<std::unique_ptr<Procedure>> TpccWorkload::Parse(
    const Bytes& payload) const {
  BinaryReader r(payload);
  uint8_t op = 0;
  uint32_t w = 0, d = 0, c = 0;
  MASSBFT_RETURN_IF_ERROR(r.GetU8(&op));
  MASSBFT_RETURN_IF_ERROR(r.GetU32(&w));
  MASSBFT_RETURN_IF_ERROR(r.GetU32(&d));
  MASSBFT_RETURN_IF_ERROR(r.GetU32(&c));
  if (w >= static_cast<uint32_t>(num_warehouses_) ||
      d >= kDistrictsPerWarehouse ||
      c >= kCustomersPerDistrict)
    return Status::Corruption("tpcc key out of range");

  if (op == kOpNewOrder) {
    uint8_t ol_cnt = 0;
    MASSBFT_RETURN_IF_ERROR(r.GetU8(&ol_cnt));
    if (ol_cnt == 0 || ol_cnt > kMaxOrderLines)
      return Status::Corruption("tpcc order line count out of range");
    std::vector<NewOrderItem> items;
    items.reserve(ol_cnt);
    for (int i = 0; i < ol_cnt; ++i) {
      NewOrderItem item{};
      MASSBFT_RETURN_IF_ERROR(r.GetU32(&item.item_id));
      MASSBFT_RETURN_IF_ERROR(r.GetU32(&item.supply_w));
      MASSBFT_RETURN_IF_ERROR(r.GetU8(&item.quantity));
      if (item.item_id >= kNumItems ||
          item.supply_w >= static_cast<uint32_t>(num_warehouses_))
        return Status::Corruption("tpcc item out of range");
      items.push_back(item);
    }
    return std::unique_ptr<Procedure>(
        std::make_unique<NewOrderProcedure>(w, d, c, std::move(items)));
  }
  if (op == kOpPayment) {
    int64_t amount = 0;
    MASSBFT_RETURN_IF_ERROR(r.GetI64(&amount));
    if (amount < kMinPayment || amount > kMaxPayment)
      return Status::Corruption("tpcc payment amount out of range");
    return std::unique_ptr<Procedure>(
        std::make_unique<PaymentProcedure>(w, d, c, amount));
  }
  return Status::Corruption("bad tpcc opcode");
}

}  // namespace massbft
