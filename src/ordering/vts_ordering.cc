#include "ordering/vts_ordering.h"

#include <algorithm>
#include <utility>

namespace massbft {

VtsOrderingEngine::VtsOrderingEngine(int num_groups, Callbacks callbacks)
    : OrderingEngine(num_groups, std::move(callbacks)),
      heads_(num_groups, 0),
      highest_(num_groups, 0) {
  // Materialize initial heads e_{g,0}: the own element is deterministic
  // (overlapped assignment, vts[g] = seq); the others are still unset.
  for (int g = 0; g < num_groups_; ++g)
    GetEntry(static_cast<uint16_t>(g), 0);
  if (cb_.telemetry == nullptr) return;
  obs::MetricsRegistry& registry = cb_.telemetry->registry();
  ts_counter_ = registry.GetCounter("vts/timestamps_received");
  exec_counter_ = registry.GetCounter("vts/executions");
  inferred_exec_counter_ = registry.GetCounter("vts/inferred_executions");
}

VtsOrderingEngine::EntryState& VtsOrderingEngine::GetEntry(uint16_t gid,
                                                           uint64_t seq) {
  auto [it, inserted] = entries_.try_emplace(Key{gid, seq});
  EntryState& e = it->second;
  if (inserted) {
    e.vts.assign(num_groups_, 0);
    e.set.assign(num_groups_, false);
    e.vts[gid] = seq;
    e.set[gid] = true;
  }
  return e;
}

void VtsOrderingEngine::OnTimestamp(uint16_t assigner, uint16_t target_gid,
                                    uint64_t target_seq, uint64_t ts) {
  if (assigner >= num_groups_ || target_gid >= num_groups_) return;
  if (ts_counter_ != nullptr) ts_counter_->Add();
  // Drop stamps for already-executed entries; the clock value still raises
  // the assigner's bound below.
  if (target_seq >= heads_[target_gid]) {
    EntryState& e = GetEntry(target_gid, target_seq);
    if (!e.set[assigner]) {
      // A head's unset element was inferred to be at least the assigner's
      // highest stamp.
      if (target_seq == heads_[target_gid] && ts < highest_[assigner] &&
          cb_.stamps_below_inferred != nullptr)
        cb_.stamps_below_inferred->Add();
      e.vts[assigner] = ts;
      e.set[assigner] = true;
    }
  }
  // Algorithm 2 lines 6-7: group clocks stamp in non-decreasing order, so
  // every element `assigner` has not stamped yet is at least `ts`.
  highest_[assigner] = std::max(highest_[assigner], ts);
}

uint64_t VtsOrderingEngine::Bound(const EntryState& e, int j) const {
  return e.set[j] ? e.vts[j] : highest_[j];
}

bool VtsOrderingEngine::Prec(const EntryState& e1, uint16_t g1,
                             const EntryState& e2, uint16_t g2) const {
  // Algorithm 2 lines 21-30 (case proof in DESIGN.md §19). Before element
  // j, every element of e2 is at least e1's, so e2 follows as soon as one
  // of its elements exceeds e1's. An element of e2 that equals e1's is
  // final, and a later element decides, or a bound that can only rise,
  // which puts e1 first.
  for (int j = 0; j < num_groups_; ++j) {
    if (!e1.set[j]) return false;  // e1's final element is unknown.
    const uint64_t bound = Bound(e2, j);
    if (e1.vts[j] < bound) return true;
    if (e1.vts[j] > bound) return false;  // e2 first, or undecidable.
  }
  // Equal VTSs, or e2 still above in an unset element: (seq, gid) breaks
  // the tie, read from each entry's own element.
  uint64_t s1 = e1.vts[g1];
  uint64_t s2 = e2.vts[g2];
  if (s1 != s2) return s1 < s2;
  return g1 < g2;
}

int VtsOrderingEngine::GlobalMinimum() const {
  for (int g1 = 0; g1 < num_groups_; ++g1) {
    const EntryState& e1 =
        entries_.at(Key{static_cast<uint16_t>(g1), heads_[g1]});
    bool precedes_all = true;
    for (int g2 = 0; g2 < num_groups_ && precedes_all; ++g2) {
      if (g2 == g1) continue;
      const EntryState& e2 =
          entries_.at(Key{static_cast<uint16_t>(g2), heads_[g2]});
      if (!Prec(e1, static_cast<uint16_t>(g1), e2, static_cast<uint16_t>(g2)))
        precedes_all = false;
    }
    if (precedes_all) return g1;
  }
  return -1;
}

void VtsOrderingEngine::RunExecutionLoop() {
  while (true) {
    int g = num_groups_ == 1 ? 0 : GlobalMinimum();
    if (g < 0) return;
    uint64_t seq = heads_[g];
    if (!CanExecute(static_cast<uint16_t>(g), seq)) return;

    // Algorithm 2 lines 9-15: execute and promote the successor to head;
    // its unset elements start at their assigners' highest stamps (Bound).
    const Key key{static_cast<uint16_t>(g), seq};
    if (exec_counter_ != nullptr) {
      exec_counter_->Add();
      // Executed on inferred lower bounds rather than a full VTS — the
      // asynchronous fast path of Algorithm 2.
      const std::vector<bool>& set = entries_.at(key).set;
      bool fully_set =
          std::all_of(set.begin(), set.end(), [](bool b) { return b; });
      if (!fully_set) inferred_exec_counter_->Add();
      obs::TraceRecorder& trace = cb_.telemetry->trace();
      if (trace.enabled() && cb_.now) {
        trace.RecordInstant(
            cb_.trace_track, "vts", "vts_execute", cb_.now(),
            obs::TraceArgs{{{"gid", static_cast<double>(g)},
                            {"seq", static_cast<double>(seq)},
                            {"inferred", fully_set ? 0.0 : 1.0}}});
      }
    }
    Execute(static_cast<uint16_t>(g), seq);
    entries_.erase(key);
    heads_[g] = seq + 1;
    GetEntry(static_cast<uint16_t>(g), seq + 1);
  }
}

}  // namespace massbft
