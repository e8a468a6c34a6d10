#ifndef MASSBFT_COMMON_LOCK_RANK_H_
#define MASSBFT_COMMON_LOCK_RANK_H_

/// Ranked mutexes: the concurrency backbone of the threaded runtime
/// (DESIGN.md §16). Every mutex in src/ is a RankedMutex, which buys two
/// machine checks at once:
///
///  1. RankedMutex is a clang thread-safety *capability*
///     (MASSBFT_CAPABILITY), so `-Werror=thread-safety` statically proves
///     that every MASSBFT_GUARDED_BY(mu_) member is only touched with mu_
///     held. libstdc++'s std::mutex carries no capability annotations, so
///     the analysis is vacuous without this wrapper.
///
///  2. In debug builds (and whenever MASSBFT_LOCK_RANK_CHECKS is forced on,
///     e.g. the TSan CI leg) each acquisition is checked against a
///     per-thread stack of held ranks. Acquiring a mutex whose rank is not
///     strictly greater than every rank already held aborts immediately,
///     printing both lock names and the full held stack — turning a latent
///     lock-order-inversion deadlock into a deterministic crash at the
///     first wrong nesting, even if the deadlock itself never fires.
///
/// The global rank order (outermost first) lives in LockRank below; the
/// rationale for each edge is tabulated in DESIGN.md §16.

#include <mutex>

#include "common/thread_annotations.h"

// Rank checking defaults to debug builds only; release builds pay nothing
// beyond the name/rank fields. CMake's MASSBFT_LOCK_RANK_CHECKS=ON forces
// it on in optimized sanitizer legs (which define NDEBUG).
#if !defined(MASSBFT_LOCK_RANK_CHECKS)
#if !defined(NDEBUG)
#define MASSBFT_LOCK_RANK_CHECKS 1
#else
#define MASSBFT_LOCK_RANK_CHECKS 0
#endif
#endif

namespace massbft {

/// Global lock order, outermost first. A thread may only acquire a mutex
/// whose rank is STRICTLY greater than every rank it already holds; equal
/// ranks never nest (e.g. the two in-process endpoint mutexes share
/// kTransport because routing always releases one before taking the next).
/// Gaps leave room to slot new layers in without renumbering.
enum class LockRank : int {
  kClusterIntrospection = 10,  // RealCluster: kill/restart/stats vs lifecycle
  kRuntimeQueue = 20,          // NodeRuntime: post queue + running flag
  kTransport = 40,             // TcpTransport / InProc hub + endpoints
  kObsRecorder = 60,           // Trace/Flight recorders (under kTransport)
  kCryptoKeys = 65,            // KeyRegistry key material; leaf-like
  kLeafCache = 70,             // process-wide memo caches (RS factory); leaf
};

namespace lock_rank_internal {

/// Always compiled (even when MASSBFT_LOCK_RANK_CHECKS is 0) so the death
/// test proving abort-on-inversion runs in every build type. Aborts with
/// both lock names when `rank` is not strictly above the held stack.
void OnAcquire(int rank, const char* name);

/// Removes the most recent matching entry; aborts if the thread does not
/// hold it. Non-LIFO release is legal (condvar waits release mid-stack).
void OnRelease(int rank, const char* name);

/// Number of ranked locks the calling thread currently holds (test seam).
int HeldCount();

}  // namespace lock_rank_internal

/// Drop-in std::mutex replacement carrying a human-readable name, a
/// LockRank, and clang capability annotations. Lowercase lock()/unlock()
/// keep it BasicLockable so std::condition_variable_any can wait on it
/// directly while a MutexLock guard is live.
class MASSBFT_CAPABILITY("mutex") RankedMutex {
 public:
  constexpr RankedMutex(const char* name, LockRank rank)
      : name_(name), rank_(rank) {}
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() MASSBFT_ACQUIRE() {
#if MASSBFT_LOCK_RANK_CHECKS
    lock_rank_internal::OnAcquire(static_cast<int>(rank_), name_);
#endif
    mu_.lock();
  }

  void unlock() MASSBFT_RELEASE() {
    mu_.unlock();
#if MASSBFT_LOCK_RANK_CHECKS
    lock_rank_internal::OnRelease(static_cast<int>(rank_), name_);
#endif
  }

  [[nodiscard]] bool try_lock() MASSBFT_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if MASSBFT_LOCK_RANK_CHECKS
    lock_rank_internal::OnAcquire(static_cast<int>(rank_), name_);
#endif
    return true;
  }

  [[nodiscard]] const char* name() const { return name_; }
  [[nodiscard]] LockRank rank() const { return rank_; }

 private:
  // RankedMutex IS the capability; the wrapped std::mutex guards nothing.
  // lint: mutex-guard-ok(the raw mutex inside RankedMutex itself)
  std::mutex mu_;
  const char* name_;
  LockRank rank_;
};

/// Abseil-style scoped guard over RankedMutex; the only sanctioned way to
/// lock one outside this header (lint rule D7 bans bare .lock()/.unlock()).
// lint-file: bare-lock-ok(the RAII seam itself: the bare calls live here)
class MASSBFT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(RankedMutex* mu) MASSBFT_ACQUIRE(mu) : mu_(mu) {
    mu_->lock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() MASSBFT_RELEASE() { mu_->unlock(); }

 private:
  RankedMutex* mu_;
};

}  // namespace massbft

#endif  // MASSBFT_COMMON_LOCK_RANK_H_
