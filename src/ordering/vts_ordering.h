#ifndef MASSBFT_ORDERING_VTS_ORDERING_H_
#define MASSBFT_ORDERING_VTS_ORDERING_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "ordering/ordering_engine.h"

namespace massbft {

/// Asynchronous log ordering by vector timestamps — the paper's Algorithm 2
/// plus Section V-D's total order (Lemma V.4):
///   e1 < e2  iff  e1.vts < e2.vts (element-wise lexicographic), ties broken
///   by (seq, gid).
///
/// Each group G_j assigns its local clock value to every entry it accepts;
/// elements arrive asynchronously (OnTimestamp). Entries proposed by G_i
/// deterministically carry vts[i] = seq (the overlapped assignment of
/// Fig 7b). Unset elements of the per-group *head* entries are inferred as
/// lower bounds (group clocks stamp in non-decreasing order), letting fast
/// groups execute without waiting for full VTSs.
///
/// The engine is a pure, deterministic state machine: feed it the same
/// events in any order consistent with per-group monotonicity and every
/// node executes the identical sequence (Theorem V.6, agreement).
class VtsOrderingEngine : public OrderingEngine {
 public:
  VtsOrderingEngine(int num_groups, Callbacks callbacks);

  void OnTimestamp(uint16_t assigner, uint16_t target_gid,
                   uint64_t target_seq, uint64_t ts) override;

 private:
  struct EntryState {
    std::vector<uint64_t> vts;
    std::vector<bool> set;
  };
  using Key = std::pair<uint16_t, uint64_t>;

  EntryState& GetEntry(uint16_t gid, uint64_t seq);
  /// True iff e1 (head of g1) must precede e2 (head of g2) — Prec().
  bool Prec(const EntryState& e1, uint16_t g1, const EntryState& e2,
            uint16_t g2) const;
  /// Index of the global-minimum head, or -1 if undecidable.
  int GlobalMinimum() const;
  void RunExecutionLoop() override;

  /// heads_[g] = seq of the next unexecuted entry from group g.
  std::vector<uint64_t> heads_;
  /// States of heads and of future entries with early timestamps.
  std::map<Key, EntryState> entries_;

  // Pre-resolved observability handles (null when not wired).
  obs::Counter* ts_counter_ = nullptr;
  obs::Counter* exec_counter_ = nullptr;
  obs::Counter* inferred_exec_counter_ = nullptr;
};

}  // namespace massbft

#endif  // MASSBFT_ORDERING_VTS_ORDERING_H_
