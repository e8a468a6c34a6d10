#ifndef MASSBFT_ORDERING_ORDERING_ENGINE_H_
#define MASSBFT_ORDERING_ORDERING_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>

#include "obs/telemetry.h"
#include "sim/time.h"

namespace massbft {

/// How committed entries are globally ordered for execution (the ordering
/// column of paper Table II).
enum class OrderingMode {
  kRoundSync,  // One entry per group per round, ordered by gid.
  kAsyncVts,   // MassBFT Algorithm 2.
  kFifo,       // Single global log (Steward).
  kEpoch,      // ISS epoch buckets.
};

/// Turns every group's committed entries into one deterministic execution
/// order. The owning node reports what it learns through the On* hooks,
/// which only record (an engine ignores the ones it does not need), then
/// calls Poke(), which executes every entry that may run now.
class OrderingEngine {
 public:
  struct Callbacks {
    /// May e_{gid,seq} execute now (globally committed and payload present
    /// on this node)? An engine never executes an entry for which this
    /// returns false; the owner pokes again when state advances.
    std::function<bool(uint16_t gid, uint64_t seq)> can_execute;
    /// Executes e_{gid,seq}. Called in the global deterministic order.
    std::function<void(uint16_t gid, uint64_t seq)> execute;
    /// Observability (optional; only the VTS engine reports). Counters
    /// "vts/timestamps_received", "vts/executions" and
    /// "vts/inferred_executions" (heads executed before their VTS was
    /// fully stamped, the paper's asynchronous fast path) land in the
    /// registry; when tracing and `now` is set, each execution emits an
    /// instant event on `trace_track`.
    obs::Telemetry* telemetry = nullptr;
    uint32_t trace_track = 0;
    std::function<SimTime()> now;
    /// Optional, and counted on every node, unlike the series above: stamps
    /// that arrive below a bound the VTS engine had already inferred for
    /// their element, which breaks its assumption that each assigner
    /// stamps in non-decreasing order.
    obs::Counter* stamps_below_inferred = nullptr;
  };

  OrderingEngine(int num_groups, Callbacks callbacks)
      : num_groups_(num_groups), cb_(std::move(callbacks)) {}
  virtual ~OrderingEngine() = default;
  OrderingEngine(const OrderingEngine&) = delete;
  OrderingEngine& operator=(const OrderingEngine&) = delete;

  /// e_{gid,seq} became globally committed (reported once per entry).
  virtual void OnCommitted(uint16_t /*gid*/, uint64_t /*seq*/) {}
  /// Group `assigner` stamped e_{target_gid,target_seq} with clock value
  /// `ts` (its certified accept, or a takeover group's frozen clock).
  virtual void OnTimestamp(uint16_t /*assigner*/, uint16_t /*target_gid*/,
                           uint64_t /*target_seq*/, uint64_t /*ts*/) {}
  /// Group `gid` sealed `epoch` with `count` entries, the ones following
  /// those of its earlier epochs.
  virtual void OnEpochSealed(uint16_t /*gid*/, uint64_t /*epoch*/,
                             uint64_t /*count*/) {}

  /// Executes every entry that may run now. A call from inside the
  /// execute callback returns at once; the running loop sees its state.
  void Poke();

  uint64_t executed_count() const { return executed_count_; }

 protected:
  /// Executes in order until the next entry may not run yet.
  virtual void RunExecutionLoop() = 0;
  bool CanExecute(uint16_t gid, uint64_t seq) const {
    return cb_.can_execute(gid, seq);
  }
  void Execute(uint16_t gid, uint64_t seq) {
    cb_.execute(gid, seq);
    ++executed_count_;
  }

  const int num_groups_;
  const Callbacks cb_;

 private:
  uint64_t executed_count_ = 0;
  bool in_loop_ = false;
};

/// Steward's single global log: entries execute in the order they commit,
/// each once its payload is present.
class FifoOrderingEngine : public OrderingEngine {
 public:
  using OrderingEngine::OrderingEngine;
  void OnCommitted(uint16_t gid, uint64_t seq) override {
    queue_.emplace_back(gid, seq);
  }

 private:
  void RunExecutionLoop() override;

  std::deque<std::pair<uint16_t, uint64_t>> queue_;
};

[[nodiscard]] std::unique_ptr<OrderingEngine> MakeOrderingEngine(
    OrderingMode mode, int num_groups, OrderingEngine::Callbacks callbacks);

}  // namespace massbft

#endif  // MASSBFT_ORDERING_ORDERING_ENGINE_H_
