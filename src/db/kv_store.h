#ifndef MASSBFT_DB_KV_STORE_H_
#define MASSBFT_DB_KV_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace massbft {

/// In-memory key-value table backing transaction execution (the paper uses
/// in-memory hash tables for database state, Section VI).
///
/// Initial state is *lazy*: a workload registers a default-value function
/// that synthesizes the pristine value of any never-written key (e.g. the
/// initial YCSB row or SmallBank balance). This keeps a simulated cluster's
/// memory proportional to the touched working set instead of the full
/// 1M-row loaded table, while remaining semantically identical to eager
/// loading — the function is deterministic in the key.
///
/// Layout (DESIGN.md §18). Each written row is stored once, as (varint key
/// length, varint value length, key, value), in an append-only arena of
/// 64 KiB blocks that never move. One open-addressing index, a power-of-two
/// table probed linearly at load ≤ 3/4, holds an 8-byte slot per key: 32
/// hash bits and a 32-bit row reference (block << 16 | offset). A probe
/// reads a row only when the hash bits match, and growth re-places slots
/// from their hash bits without reading rows. `Put` overwrites a value in
/// place when its size is unchanged; otherwise it appends the row again and
/// the old bytes become waste, as does the unused end of a block a row did
/// not fit in. Once waste exceeds the live row bytes, the live rows are
/// rewritten into fresh blocks, so the blocks hold at most twice the live
/// rows plus the block being filled.
class KvStore {
 public:
  using DefaultValueFn =
      std::function<std::optional<Bytes>(std::string_view key)>;

  /// Rows are appended into blocks of this size; a row longer than a
  /// quarter block gets a block of its own.
  static constexpr size_t kBlockBytes = 64 * 1024;

  KvStore() = default;

  /// Registers the lazy initial-state synthesizer.
  void SetDefaultValueFn(DefaultValueFn fn) { default_fn_ = std::move(fn); }

  /// Returns the current value: a written value if present, otherwise the
  /// synthesized initial value, otherwise nullopt.
  std::optional<Bytes> Get(std::string_view key) const;

  void Put(std::string key, Bytes value);

  /// Number of materialized (written) keys.
  size_t materialized_size() const { return size_; }

  /// Drops all written state (back to pristine initial state) and frees
  /// the index and the blocks.
  void Reset();

  /// Heap bytes held for written state: the index plus every block.
  size_t bytes() const;

  /// All materialized (written) entries in ascending key order. Any
  /// result-observable dump of store state (agreement digests, experiment
  /// JSON, debugging snapshots) must go through this instead of walking the
  /// index, whose order depends on the hash seed (DESIGN.md §11, D2).
  [[nodiscard]] std::vector<std::pair<std::string, Bytes>> Snapshot() const;

  /// Order-independent digest of the written state: the XOR over rows of
  ///   h = std::hash<std::string_view>(key); h = h * 1099511628211 + b
  /// for each value byte b in order. XOR is commutative, so the result is
  /// identical for any walk order. Used by tests and drain checks to
  /// compare two stores without materializing a snapshot.
  [[nodiscard]] uint64_t StateFingerprint() const;

  /// Test hook: perturbs the index hash for all KvStores constructed
  /// afterwards, emulating a different hash implementation/seed.
  /// Deterministic results must not change under any seed (regression test
  /// for hash-order leaking into experiment output).
  static void SetHashSeedForTest(uint64_t seed);
  static uint64_t hash_seed();

 private:
  /// Returns the slot holding `key`, or the empty slot where it belongs;
  /// the index must have slots.
  size_t Probe(std::string_view key, uint32_t hash) const;
  uint32_t Hash(std::string_view key) const;
  /// Claims `n` bytes for a row and returns its reference.
  uint32_t Allocate(size_t n, uint8_t** out);
  void Grow();
  void Compact();

  /// The index: (hash << 32 | row reference) per key, or kEmptySlot.
  std::vector<uint64_t> slots_;
  std::vector<std::unique_ptr<uint8_t[]>> blocks_;
  /// The block rows are appended to, and its bytes in use; a full fill
  /// means the next row starts a new block.
  size_t fill_block_ = 0;
  size_t fill_used_ = kBlockBytes;
  size_t size_ = 0;
  size_t block_bytes_ = 0;
  size_t live_bytes_ = 0;
  size_t waste_bytes_ = 0;
  uint64_t seed_ = hash_seed();
  DefaultValueFn default_fn_;
};

}  // namespace massbft

#endif  // MASSBFT_DB_KV_STORE_H_
