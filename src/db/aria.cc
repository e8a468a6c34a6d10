#include "db/aria.h"

#include <limits>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace massbft {

namespace {

constexpr size_t kNone = std::numeric_limits<size_t>::max();

/// The lowest-indexed transaction of the batch that writes, and that
/// reads, one key.
struct Reservation {
  size_t writer = kNone;
  size_t reader = kNone;
};

}  // namespace

std::optional<Bytes> TxnContext::Get(const std::string& key) {
  reads_.push_back(key);
  // Read-your-own-writes within the transaction.
  for (const auto& [k, v] : writes_)
    if (k == key) return v;
  return store_->Get(key);
}

void TxnContext::Put(std::string key, Bytes value) {
  for (auto& [k, v] : writes_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  writes_.emplace_back(std::move(key), std::move(value));
}

AriaExecutor::AriaExecutor(KvStore* store, ProcedureFactory factory,
                           bool reordering)
    : store_(store), factory_(std::move(factory)), reordering_(reordering) {}

AriaBatchResult AriaExecutor::ExecuteBatch(
    const std::vector<Transaction>& txns) {
  AriaBatchResult result;
  const size_t n = txns.size();

  // Phase 1: execute everything against the batch-start snapshot.
  std::vector<TxnContext> contexts;
  contexts.reserve(n);
  std::vector<bool> ok(n, false);
  size_t keys = 0;
  for (size_t i = 0; i < n; ++i) {
    TxnContext& ctx = contexts.emplace_back(store_);
    auto proc = factory_(txns[i]);
    if (!proc.ok()) continue;
    Status s = (*proc)->Execute(&ctx);
    ok[i] = s.ok() && !ctx.logic_aborted();
    if (ok[i]) keys += ctx.reads_.size() + ctx.writes_.size();
  }

  std::vector<bool> commit(n, false);
  {
    // Phase 2: reservations — the lowest transaction index wins each key.
    // The table's keys view strings owned by `contexts`, which neither
    // move nor change until the install below, after the table is gone.
    // Only point lookups touch it, so its hash order cannot leak.
    std::unordered_map<std::string_view, Reservation> table;
    table.reserve(keys);
    for (size_t i = 0; i < n; ++i) {
      if (!ok[i]) continue;
      for (const auto& [key, value] : contexts[i].writes_) {
        size_t& writer = table[key].writer;
        if (writer == kNone) writer = i;
      }
      for (const std::string& key : contexts[i].reads_) {
        size_t& reader = table[key].reader;
        if (reader == kNone) reader = i;
      }
    }

    // Phase 3: every commit decision, before any write is touched.
    for (size_t i = 0; i < n; ++i) {
      if (!ok[i]) {
        ++result.logic_aborts;
        continue;
      }
      bool waw = false, war = false;
      for (const auto& [key, value] : contexts[i].writes_) {
        const Reservation& r = table.at(key);
        if (r.writer < i) {
          waw = true;
          break;
        }
        if (r.reader < i) war = true;
      }
      // RAW decides only when WAW did not: alone without reordering, and
      // together with WAR with it.
      bool raw = false;
      if (!waw && (war || !reordering_)) {
        for (const std::string& key : contexts[i].reads_) {
          if (table.at(key).writer < i) {
            raw = true;
            break;
          }
        }
      }
      bool conflict = reordering_ ? (waw || (raw && war)) : (waw || raw);
      if (conflict) {
        result.conflict_aborts.push_back(i);
      } else {
        commit[i] = true;
        ++result.committed;
      }
    }
  }

  // Phase 4: move the survivors' writes into the store. With reordering, a
  // reorderable WAR-only writer is logically ordered after the reader but
  // may share a key with NO earlier writer (WAW aborted those), so
  // last-writer-wins within the batch cannot occur: each committed key has
  // exactly one writer, and install order cannot change the state.
  for (size_t i = 0; i < n; ++i) {
    if (!commit[i]) continue;
    for (auto& [key, value] : contexts[i].writes_)
      store_->Put(std::move(key), std::move(value));
  }
  return result;
}

}  // namespace massbft
