#ifndef MASSBFT_DB_ARIA_H_
#define MASSBFT_DB_ARIA_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "db/kv_store.h"
#include "proto/entry.h"

namespace massbft {

/// Read/write-set recording execution context handed to stored procedures.
/// During the Aria execution phase all reads observe the batch-start
/// snapshot; writes are buffered and only installed for transactions that
/// survive conflict detection.
///
/// Both sets are flat vectors. A transaction touches a few dozen keys at
/// most, so a scan of its own writes costs less than a per-key tree.
class TxnContext {
 public:
  explicit TxnContext(const KvStore* store) : store_(store) {}

  /// Snapshot read, or this transaction's own write of `key` if it made
  /// one; records the key in the read set.
  std::optional<Bytes> Get(const std::string& key);

  /// Buffered write; records the key in the write set. A second write of
  /// the same key replaces the first.
  void Put(std::string key, Bytes value);

  /// Business abort (e.g. invalid account): the transaction completes
  /// deterministically with no effects but is NOT retried.
  void AbortLogic() { logic_aborted_ = true; }
  bool logic_aborted() const { return logic_aborted_; }

  /// Keys read, in read order; a key read twice is listed twice.
  const std::vector<std::string>& reads() const { return reads_; }
  /// Buffered writes, one per key, in first-write order.
  const std::vector<std::pair<std::string, Bytes>>& writes() const {
    return writes_;
  }

 private:
  friend class AriaExecutor;  // Moves the survivors' writes into the store.

  const KvStore* store_;
  std::vector<std::string> reads_;
  std::vector<std::pair<std::string, Bytes>> writes_;
  bool logic_aborted_ = false;
};

/// A deterministic stored procedure (the decoded form of a transaction
/// payload). Procedures must be pure functions of the context reads.
class Procedure {
 public:
  virtual ~Procedure() = default;
  /// Runs once per decoded procedure, so it may move its decoded values
  /// into the context.
  virtual Status Execute(TxnContext* ctx) = 0;
};

/// Decodes a transaction payload into an executable procedure. Supplied by
/// the workload (YCSB / SmallBank / TPC-C).
using ProcedureFactory =
    std::function<Result<std::unique_ptr<Procedure>>(const Transaction&)>;

/// Outcome of one Aria batch.
struct AriaBatchResult {
  int committed = 0;
  /// Conflict-aborted transaction indices in ascending order, to be
  /// re-queued into the next batch by the caller (deterministic retry).
  std::vector<size_t> conflict_aborts;
  /// Business aborts (completed, no effects, not retried).
  int logic_aborts = 0;
};

/// Aria-style deterministic batch execution (Lu et al., VLDB'20; the
/// paper's execution layer): every transaction in a batch executes against
/// the same snapshot, then reservation-based conflict detection decides
/// commits, and the survivors' writes are installed. Identical inputs
/// yield identical state on every node, which is what lets all replicas
/// execute independently.
///
/// With Aria's deterministic reordering (the default, as in the paper's
/// prototype), a transaction aborts iff
///     WAW  (it writes a key a lower-indexed transaction writes), or
///     RAW ∧ WAR  (it both read an earlier writer's key and wrote an
///                 earlier reader's key — unreorderable),
/// so blind writes and read-only transactions never conflict-abort.
/// Without reordering the classic rule RAW ∨ WAW applies.
class AriaExecutor {
 public:
  AriaExecutor(KvStore* store, ProcedureFactory factory,
               bool reordering = true);

  /// Executes `txns` as one batch. Malformed payloads count as logic
  /// aborts.
  AriaBatchResult ExecuteBatch(const std::vector<Transaction>& txns);

 private:
  KvStore* store_;
  ProcedureFactory factory_;
  bool reordering_;
};

}  // namespace massbft

#endif  // MASSBFT_DB_ARIA_H_
