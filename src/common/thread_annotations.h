// Compile-time lock discipline (DESIGN.md section 15).
//
// Two mechanisms, one header:
//
//  1. Clang Thread Safety Analysis plumbing. The PARQO_* macros below
//     expand to the clang `capability` attribute family under clang and
//     to nothing elsewhere, so a GCC build is byte-identical while the CI
//     thread-safety job (clang, -Wthread-safety -Wthread-safety-beta
//     -Werror) turns every unannotated guarded access, missing REQUIRES,
//     or declared-order violation into a build break.
//
//  2. A static lock hierarchy. Every mutex in src/ is constructed with a
//     LockRank from the registry below; a thread may only acquire a mutex
//     whose rank is STRICTLY GREATER than the rank of every mutex it
//     already holds. The ordering is enforced three ways: clang
//     ACQUIRED_BEFORE/ACQUIRED_AFTER relations where both mutexes are
//     visible to each other (checked by -Wthread-safety-beta),
//     tools/parqo_lint.py's mutex-rank / lock-rank-order rules (checked
//     on every build via the lint_test ctest target), and a runtime
//     checker in MutexLock that maintains a per-thread stack of held
//     ranks (on by default in debug and PARQO_VALIDATE builds,
//     switchable at runtime for tests).
//
// Usage contract (enforced by parqo_lint):
//   - declare mutexes as parqo::Mutex with an explicit rank:
//     `Mutex mu_{LockRank::kTrace};` — raw std::mutex /
//     std::shared_mutex members are banned outside this header;
//   - acquire only through the RAII guard MutexLock; naked
//     Lock()/Unlock() calls are banned outside this header;
//   - every mutable field of a type that owns a mutex carries
//     PARQO_GUARDED_BY(mu) or a written allow(guarded-field) reason;
//   - PARQO_NO_THREAD_SAFETY_ANALYSIS requires an allow(tsa-escape)
//     justification on the same line.

#ifndef PARQO_COMMON_THREAD_ANNOTATIONS_H_
#define PARQO_COMMON_THREAD_ANNOTATIONS_H_

#include <atomic>
#include <condition_variable>
#include <mutex>

#include "common/check.h"

// -- Attribute plumbing ------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define PARQO_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#if !defined(PARQO_THREAD_ANNOTATION_)
#define PARQO_THREAD_ANNOTATION_(x)  // no-op on GCC and pre-TSA clangs
#endif

/// Marks a type as a lockable capability ("mutex" in diagnostics).
#define PARQO_CAPABILITY(x) PARQO_THREAD_ANNOTATION_(capability(x))
/// Marks an RAII type whose lifetime holds a capability.
#define PARQO_SCOPED_CAPABILITY PARQO_THREAD_ANNOTATION_(scoped_lockable)
/// Field may only be read/written while holding `x`.
#define PARQO_GUARDED_BY(x) PARQO_THREAD_ANNOTATION_(guarded_by(x))
/// Pointee (not the pointer) is guarded by `x`.
#define PARQO_PT_GUARDED_BY(x) PARQO_THREAD_ANNOTATION_(pt_guarded_by(x))
/// Caller must hold the capability exclusively.
#define PARQO_REQUIRES(...) \
  PARQO_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
/// Function acquires the capability (exclusively) and does not release it.
#define PARQO_ACQUIRE(...) \
  PARQO_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
/// Function releases the capability.
#define PARQO_RELEASE(...) \
  PARQO_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns `b`.
#define PARQO_TRY_ACQUIRE(...) \
  PARQO_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (deadlock-by-reentry guard).
#define PARQO_EXCLUDES(...) \
  PARQO_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
/// Declared acquisition order between two visible mutexes; violations are
/// rejected by clang under -Wthread-safety-beta.
#define PARQO_ACQUIRED_BEFORE(...) \
  PARQO_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define PARQO_ACQUIRED_AFTER(...) \
  PARQO_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
/// Function returns a reference to the capability `x`.
#define PARQO_RETURN_CAPABILITY(x) PARQO_THREAD_ANNOTATION_(lock_returned(x))
/// Runtime assertion that the capability is held (e.g. after a fan-in).
#define PARQO_ASSERT_CAPABILITY(x) \
  PARQO_THREAD_ANNOTATION_(assert_capability(x))
/// Escape hatch. Every use must carry a parqo-lint allow(tsa-escape)
/// justification; prefer restructuring over suppressing.
#define PARQO_NO_THREAD_SAFETY_ANALYSIS \
  PARQO_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace parqo {

// -- Static lock hierarchy ---------------------------------------------
//
// The ranked registry. A thread holding a mutex of rank r may only
// acquire mutexes of rank STRICTLY GREATER than r; since the codebase's
// locks are all leaves today (nothing acquires a second mutex while
// holding one), any nesting introduced by future work — the ROADMAP's
// online repartitioner mutating layout under a warm cache is the
// motivating case — must thread top-down through this order:
//
//   cache shards, then node health, then executor recovery, then the
//   thread pool, then the leaf diagnostics locks (fault, trace). The
//   admission front door takes no lock at all.
//
// tools/parqo_lint.py parses this enum (names and values) and enforces
// that every mutex declaration carries a registered rank and that
// lexically nested acquisitions are strictly increasing. Keep the
// numeric gaps: they leave room to slot new subsystems between layers
// without renumbering.
enum class LockRank : int {
  kCacheShard = 20,      ///< PlanCache::Shard::mu (server/plan_cache.h).
  kHealth = 25,          ///< NodeHealthRegistry::mu_ (exec/health.h).
  kExecRecovery = 30,    ///< Executor fault-recovery state (exec/executor.cc).
  kPool = 50,            ///< ThreadPool queue state (common/thread_pool.h).
  kPoolJoin = 52,        ///< ParallelFor completion latch (common/thread_pool.cc).
  kFault = 60,           ///< FaultPlan::drop_mu_ (common/fault.h).
  kTrace = 70,           ///< TraceRecorder::mu_ (common/trace.h).
  kLeaf = 90,            ///< Strict leaf: never held across any acquisition
                         ///< (QueryServer's idle scratch list).
};

namespace lock_rank_internal {

/// Runtime switch for the held-rank checker. Defaults on when PARQO_DCHECK
/// is live (debug or PARQO_VALIDATE builds) so the checker costs one
/// relaxed load + branch per acquisition in release serving builds.
inline std::atomic<bool> g_rank_checks{PARQO_DCHECK_ENABLED != 0};

/// Per-thread stack of held ranks. Fixed capacity: the hierarchy is 9
/// levels deep and same-rank nesting is forbidden, so 16 can never
/// overflow without a rank bug worth aborting on.
struct HeldRanks {
  int ranks[16];
  int depth = 0;
};
inline thread_local HeldRanks t_held;

inline void PushRank(int rank) {
  HeldRanks& h = t_held;
  if (h.depth > 0 && h.ranks[h.depth - 1] >= rank) {
    internal::CheckFailedWithMessage(
        __FILE__, __LINE__, "lock rank order",
        "acquiring a mutex whose LockRank is not strictly greater than "
        "the innermost held lock (see the hierarchy in "
        "common/thread_annotations.h)");
  }
  PARQO_CHECK(h.depth < 16);
  h.ranks[h.depth++] = rank;
}

/// Tolerant pop: removes the innermost entry only when it matches
/// `rank`. Unlock calls this unconditionally (push is what's gated on
/// the enable flag), so flipping the checker between a Lock and its
/// Unlock neither aborts on an empty stack nor leaks a stale rank that
/// would poison every later acquisition on this thread.
inline void PopRank(int rank) {
  HeldRanks& h = t_held;
  if (h.depth > 0 && h.ranks[h.depth - 1] == rank) --h.depth;
}

}  // namespace lock_rank_internal

inline bool LockRankCheckingEnabled() {
  return lock_rank_internal::g_rank_checks.load(std::memory_order_relaxed);
}

/// Tests flip this to exercise the checker in NDEBUG builds (or to
/// silence it around a deliberately misordered death-test scenario).
inline void SetLockRankCheckingEnabled(bool enabled) {
  lock_rank_internal::g_rank_checks.store(enabled,
                                          std::memory_order_relaxed);
}

// -- Annotated mutex wrappers ------------------------------------------

/// std::mutex with a capability annotation and a hierarchy rank. The
/// wrapper is what lets clang's analysis see acquisitions at all
/// (libstdc++'s std::mutex carries no attributes), and the rank is what
/// the lint + runtime checkers order acquisitions by.
class PARQO_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank) : rank_(static_cast<int>(rank)) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PARQO_ACQUIRE() {
    if (LockRankCheckingEnabled()) lock_rank_internal::PushRank(rank_);
    mu_.lock();
  }
  void Unlock() PARQO_RELEASE() {
    mu_.unlock();
    lock_rank_internal::PopRank(rank_);
  }

  int rank() const { return rank_; }

  /// The raw mutex, for MutexLock's condition-variable bridge only.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
  const int rank_;
};

/// RAII exclusive guard — the only sanctioned way to hold a Mutex.
class PARQO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PARQO_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() PARQO_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// One predicate-less wait step on `cv`. Callers loop on their guarded
  /// predicate in normal annotated context (`while (!done_) lock.Wait(cv);`)
  /// so the analysis sees the predicate reads under the capability — the
  /// loop-around-wait form IS the predicate, which is why this wait is
  /// exempt from the naked-sleep lint rule.
  /// The capability is released and reacquired inside the wait; the
  /// analysis treats it as held throughout, which is sound because the
  /// caller only observes guarded state before and after.
  void Wait(std::condition_variable& cv) {
    // Adopt the already-held native mutex for the duration of the wait,
    // then release ownership back to this guard without unlocking.
    std::unique_lock<std::mutex> native(mu_.native(), std::adopt_lock);
    cv.wait(native);  // parqo-lint: allow(naked-sleep) the sanctioned wait primitive; callers loop on a guarded predicate
    native.release();
  }

 private:
  Mutex& mu_;
};

}  // namespace parqo

#endif  // PARQO_COMMON_THREAD_ANNOTATIONS_H_
