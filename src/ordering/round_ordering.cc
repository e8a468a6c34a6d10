#include "ordering/round_ordering.h"

namespace massbft {

void RoundOrderingEngine::RunExecutionLoop() {
  while (true) {
    // The round may proceed only when every group's round-r entry is
    // executable.
    for (int g = 0; g < num_groups_; ++g)
      if (!CanExecute(static_cast<uint16_t>(g), round_)) return;
    for (int g = 0; g < num_groups_; ++g)
      Execute(static_cast<uint16_t>(g), round_);
    ++round_;
  }
}

void EpochOrderingEngine::OnEpochSealed(uint16_t gid, uint64_t epoch,
                                        uint64_t count) {
  if (gid >= num_groups_ || epoch != next_epoch_[gid]) return;
  plans_[epoch][gid] = {next_first_[gid], count};
  next_first_[gid] += count;
  ++next_epoch_[gid];
}

void EpochOrderingEngine::RunExecutionLoop() {
  while (true) {
    auto it = plans_.find(epoch_);
    if (it == plans_.end()) return;
    const auto& per_group = it->second;
    if (static_cast<int>(per_group.size()) < num_groups_) return;

    // All groups sealed this epoch; every declared entry must be
    // executable before the barrier opens.
    for (const auto& [gid, range] : per_group)
      for (uint64_t s = range.first; s < range.first + range.second; ++s)
        if (!CanExecute(gid, s)) return;

    for (const auto& [gid, range] : per_group)
      for (uint64_t s = range.first; s < range.first + range.second; ++s)
        Execute(gid, s);
    plans_.erase(it);
    ++epoch_;
  }
}

}  // namespace massbft
