#include "ordering/ordering_engine.h"

#include "ordering/round_ordering.h"
#include "ordering/vts_ordering.h"

namespace massbft {

void OrderingEngine::Poke() {
  if (in_loop_) return;
  in_loop_ = true;
  RunExecutionLoop();
  in_loop_ = false;
}

void FifoOrderingEngine::RunExecutionLoop() {
  while (!queue_.empty() && CanExecute(queue_.front().first,
                                       queue_.front().second)) {
    auto [gid, seq] = queue_.front();
    queue_.pop_front();
    Execute(gid, seq);
  }
}

std::unique_ptr<OrderingEngine> MakeOrderingEngine(
    OrderingMode mode, int num_groups, OrderingEngine::Callbacks callbacks) {
  switch (mode) {
    case OrderingMode::kRoundSync:
      return std::make_unique<RoundOrderingEngine>(num_groups,
                                                   std::move(callbacks));
    case OrderingMode::kAsyncVts:
      return std::make_unique<VtsOrderingEngine>(num_groups,
                                                 std::move(callbacks));
    case OrderingMode::kFifo:
      return std::make_unique<FifoOrderingEngine>(num_groups,
                                                  std::move(callbacks));
    case OrderingMode::kEpoch:
      return std::make_unique<EpochOrderingEngine>(num_groups,
                                                   std::move(callbacks));
  }
  return nullptr;
}

}  // namespace massbft
