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
/// Fig 7b). An unset element is at least its assigner's highest stamp
/// received so far (rule 1: each assigner's stamps arrive in non-decreasing
/// order), a lower bound that lets fast groups execute without waiting for
/// full VTSs. One group's entries never decrease in any element as the
/// sequence number grows (rule 2), so each group's head stands for all of
/// its later entries.
///
/// The engine is a pure, deterministic state machine: for any fixed set of
/// stamps that obeys both rules, delivered in any order that keeps each
/// assigner's stamps in order, every node executes a prefix of the same
/// sequence, the sort by final VTS (Theorem V.6, agreement; DESIGN.md §19).
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
  /// e's element j if set, else the lower bound rule 1 gives it.
  uint64_t Bound(const EntryState& e, int j) const;
  /// True iff e1 (head of g1) precedes e2 (head of g2) whatever values
  /// their unset elements take — Prec().
  bool Prec(const EntryState& e1, uint16_t g1, const EntryState& e2,
            uint16_t g2) const;
  /// Index of the global-minimum head, or -1 if undecidable.
  int GlobalMinimum() const;
  void RunExecutionLoop() override;

  /// heads_[g] = seq of the next unexecuted entry from group g.
  std::vector<uint64_t> heads_;
  /// States of heads and of future entries with early timestamps.
  std::map<Key, EntryState> entries_;
  /// highest_[j] = group j's highest stamp received so far.
  std::vector<uint64_t> highest_;

  // Pre-resolved observability handles (null when not wired).
  obs::Counter* ts_counter_ = nullptr;
  obs::Counter* exec_counter_ = nullptr;
  obs::Counter* inferred_exec_counter_ = nullptr;
};

}  // namespace massbft

#endif  // MASSBFT_ORDERING_VTS_ORDERING_H_
