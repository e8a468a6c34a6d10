#include "common/lock_rank.h"

#include <cstdio>
#include <cstdlib>

namespace massbft {
namespace lock_rank_internal {
namespace {

// Per-thread stack of held ranked locks. Fixed depth: the deepest legal
// chain today is introspection -> runtime -> transport -> recorder, so 16
// leaves generous headroom; overflow is itself a bug worth a crash.
constexpr int kMaxHeldLocks = 16;

struct HeldLock {
  int rank;
  const char* name;
};

thread_local HeldLock g_held[kMaxHeldLocks];
thread_local int g_held_count = 0;

[[noreturn]] void Die(const char* what, int rank, const char* name) {
  std::fprintf(stderr,
               "massbft: lock-rank violation: %s '%s' (rank %d)\n"
               "massbft: locks held by this thread (acquisition order):\n",
               what, name, rank);
  for (int i = 0; i < g_held_count; ++i) {
    std::fprintf(stderr, "massbft:   [%d] '%s' (rank %d)\n", i,
                 g_held[i].name, g_held[i].rank);
  }
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void OnAcquire(int rank, const char* name) {
  for (int i = 0; i < g_held_count; ++i) {
    if (g_held[i].rank >= rank) {
      Die("acquiring", rank, name);
    }
  }
  if (g_held_count >= kMaxHeldLocks) {
    Die("lock stack overflow acquiring", rank, name);
  }
  g_held[g_held_count++] = HeldLock{rank, name};
}

void OnRelease(int rank, const char* name) {
  // Search newest-first: releases are usually LIFO, but a condvar wait
  // legitimately releases a lock that is not on top of the stack.
  for (int i = g_held_count - 1; i >= 0; --i) {
    if (g_held[i].rank == rank && g_held[i].name == name) {
      for (int j = i; j + 1 < g_held_count; ++j) g_held[j] = g_held[j + 1];
      --g_held_count;
      return;
    }
  }
  Die("releasing un-held", rank, name);
}

int HeldCount() { return g_held_count; }

}  // namespace lock_rank_internal
}  // namespace massbft
