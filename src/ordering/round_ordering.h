#ifndef MASSBFT_ORDERING_ROUND_ORDERING_H_
#define MASSBFT_ORDERING_ROUND_ORDERING_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "ordering/ordering_engine.h"

namespace massbft {

/// Round-based synchronous ordering (the scheme GeoBFT / Baseline / ISS use,
/// paper Section II-A): in round r every group contributes exactly its
/// entry with local sequence r; the round executes — in group-id order —
/// only once every group's round-r entry is executable.
/// This is precisely the mechanism that chains fast groups to slow ones
/// (paper Fig 2), which MassBFT's VTS ordering removes.
class RoundOrderingEngine : public OrderingEngine {
 public:
  using OrderingEngine::OrderingEngine;

  uint64_t current_round() const { return round_; }

 private:
  void RunExecutionLoop() override;

  uint64_t round_ = 0;
};

/// Epoch-bucketed ordering (ISS): entries are grouped into epochs by their
/// proposing group; an epoch executes once every group has sealed it
/// (declared how many entries it contributed). Within an epoch, entries run
/// in (gid, seq) order. Frequent epoch boundaries act as global
/// synchronization barriers — the latency effect the paper reports for ISS.
class EpochOrderingEngine : public OrderingEngine {
 public:
  EpochOrderingEngine(int num_groups, Callbacks callbacks)
      : OrderingEngine(num_groups, std::move(callbacks)),
        next_first_(num_groups, 0),
        next_epoch_(num_groups, 0) {}

  /// A group seals its epochs in order, so its epoch starts where the
  /// previous one's `count` entries ended. A seal counts only when it is
  /// the group's next epoch: a repeated one would shift every later range.
  void OnEpochSealed(uint16_t gid, uint64_t epoch, uint64_t count) override;

  uint64_t current_epoch() const { return epoch_; }

 private:
  void RunExecutionLoop() override;

  /// Per epoch, each sealed group's entries [first, first + count).
  std::map<uint64_t, std::map<uint16_t, std::pair<uint64_t, uint64_t>>>
      plans_;
  std::vector<uint64_t> next_first_;  // Per group.
  std::vector<uint64_t> next_epoch_;  // Per group.
  uint64_t epoch_ = 0;
};

}  // namespace massbft

#endif  // MASSBFT_ORDERING_ROUND_ORDERING_H_
