#include "common/lock_rank.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <thread>

namespace massbft {
namespace {

using lock_rank_internal::HeldCount;
using lock_rank_internal::OnAcquire;
using lock_rank_internal::OnRelease;

// The tracker itself is compiled into every build (only RankedMutex's
// calls into it are gated on MASSBFT_LOCK_RANK_CHECKS), so the abort
// contract is provable regardless of build type.

TEST(LockRankDeathTest, AbortsOnInversionWithBothNames) {
  EXPECT_DEATH(
      {
        OnAcquire(40, "tcp.mu");
        OnAcquire(10, "cluster.introspection_mu");
      },
      "lock-rank violation: acquiring 'cluster.introspection_mu' "
      "\\(rank 10\\).*'tcp.mu' \\(rank 40\\)");
}

TEST(LockRankDeathTest, AbortsOnEqualRankNesting) {
  // Equal ranks never nest (two kTransport endpoint locks held together
  // would be the classic AB/BA deadlock).
  EXPECT_DEATH(
      {
        OnAcquire(40, "inproc.hub.mu");
        OnAcquire(40, "inproc.endpoint.mu");
      },
      "lock-rank violation: acquiring 'inproc.endpoint.mu'");
}

TEST(LockRankDeathTest, AbortsOnReleasingUnheldLock) {
  EXPECT_DEATH(OnRelease(40, "tcp.mu"), "releasing un-held");
}

TEST(LockRankTrackerTest, OrderedAcquisitionIsClean) {
  ASSERT_EQ(HeldCount(), 0);
  OnAcquire(10, "outer");
  OnAcquire(20, "middle");
  OnAcquire(60, "inner");
  EXPECT_EQ(HeldCount(), 3);
  // Non-LIFO release is legal: a condvar wait releases mid-stack.
  OnRelease(20, "middle");
  OnRelease(60, "inner");
  OnRelease(10, "outer");
  EXPECT_EQ(HeldCount(), 0);
}

TEST(LockRankTrackerTest, ReacquireAfterFullReleaseIsClean) {
  OnAcquire(40, "tcp.mu");
  OnRelease(40, "tcp.mu");
  OnAcquire(10, "cluster.introspection_mu");  // Lower rank: fine when empty.
  OnRelease(10, "cluster.introspection_mu");
  EXPECT_EQ(HeldCount(), 0);
}

TEST(RankedMutexTest, GuardsDataAcrossThreads) {
  RankedMutex mu("test.mu", LockRank::kLeafCache);
  int counter = 0;
  std::thread worker([&] {
    for (int i = 0; i < 1000; ++i) {
      MutexLock lock(&mu);
      ++counter;
    }
  });
  for (int i = 0; i < 1000; ++i) {
    MutexLock lock(&mu);
    ++counter;
  }
  worker.join();
  MutexLock lock(&mu);
  EXPECT_EQ(counter, 2000);
}

TEST(RankedMutexTest, OrderedNestingSucceeds) {
  RankedMutex outer("test.outer", LockRank::kRuntimeQueue);
  RankedMutex inner("test.inner", LockRank::kObsRecorder);
  MutexLock hold_outer(&outer);
  MutexLock hold_inner(&inner);
#if MASSBFT_LOCK_RANK_CHECKS
  EXPECT_EQ(HeldCount(), 2);
#else
  EXPECT_EQ(HeldCount(), 0);  // Release builds skip the bookkeeping.
#endif
}

#if MASSBFT_LOCK_RANK_CHECKS
TEST(RankedMutexDeathTest, AbortsOnRankedMutexInversion) {
  // The end-to-end wiring: a deliberate out-of-order acquisition through
  // the real RankedMutex/MutexLock path must abort, naming both locks.
  EXPECT_DEATH(
      {
        RankedMutex inner("test.recorder", LockRank::kObsRecorder);
        RankedMutex outer("test.cluster", LockRank::kClusterIntrospection);
        MutexLock hold_inner(&inner);
        MutexLock hold_outer(&outer);
      },
      "acquiring 'test.cluster' \\(rank 10\\).*'test.recorder' \\(rank 60\\)");
}
#endif

TEST(RankedMutexTest, TryLockAcquiresAndReleases) {
  RankedMutex mu("test.trylock", LockRank::kLeafCache);
  ASSERT_TRUE(mu.try_lock());
#if MASSBFT_LOCK_RANK_CHECKS
  EXPECT_EQ(HeldCount(), 1);
#endif
  mu.unlock();  // Raw call on purpose: D7 binds under src/, not tests/.
  EXPECT_EQ(HeldCount(), 0);
}

TEST(RankedMutexTest, ConditionVariableAnyWaitsOnRankedMutex) {
  RankedMutex mu("test.cv.mu", LockRank::kRuntimeQueue);
  std::condition_variable_any cv;
  bool ready = false;
  std::thread signaler([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.notify_one();
  });
  {
    MutexLock lock(&mu);
    while (!ready) cv.wait(mu);
    // The wait reacquired the lock and the rank bookkeeping survived the
    // unlock/lock cycle inside it.
#if MASSBFT_LOCK_RANK_CHECKS
    EXPECT_EQ(HeldCount(), 1);
#endif
  }
  signaler.join();
  EXPECT_EQ(HeldCount(), 0);
}

}  // namespace
}  // namespace massbft
