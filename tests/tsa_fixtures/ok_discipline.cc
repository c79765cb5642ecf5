// Positive control for the thread-safety toolchain: this file follows
// every rule of the lock discipline (ranked mutexes, GUARDED_BY on every
// mutable member or a written reason, RAII-only acquisition, nesting that
// climbs the hierarchy, a declared ACQUIRED_AFTER order taken in order).
// tools/check_tsa_fixtures.py asserts it compiles CLEANLY under
//   clang -fsyntax-only -Wthread-safety -Wthread-safety-beta -Werror
// and tools/parqo_lint_test.py asserts the linter reports nothing. If
// either starts failing, the toolchain itself regressed — fix the tools,
// not this file.

#include "common/thread_annotations.h"

namespace parqo {
namespace {

struct BoundedQueue {
  Mutex mu{LockRank::kPool};
  int pending PARQO_GUARDED_BY(mu) = 0;
  // parqo-lint: allow(guarded-field) written once before the queue is shared
  int limit = 16;
};

/// Locked helper: the REQUIRES contract replaces a redundant acquisition.
int DrainLocked(BoundedQueue& q) PARQO_REQUIRES(q.mu) {
  int drained = q.pending;
  q.pending = 0;
  return drained;
}

struct Layered {
  Mutex shard_mu{LockRank::kCacheShard};
  /// Declared order: shard_mu first, stats_mu inside it (20 -> 70 also
  /// climbs the LockRank hierarchy, so all three checkers agree).
  Mutex stats_mu PARQO_ACQUIRED_AFTER(shard_mu) = Mutex(LockRank::kTrace);
  int entries PARQO_GUARDED_BY(shard_mu) = 0;
  int lookups PARQO_GUARDED_BY(stats_mu) = 0;
};

void TouchInOrder(Layered& layered, BoundedQueue& q) {
  {
    MutexLock shard(layered.shard_mu);
    MutexLock stats(layered.stats_mu);
    ++layered.entries;
    ++layered.lookups;
  }
  MutexLock lock(q.mu);
  ++q.pending;
  if (q.pending > q.limit) {
    (void)DrainLocked(q);
  }
}

}  // namespace
}  // namespace parqo

int main() {
  parqo::BoundedQueue q;
  parqo::Layered layered;
  parqo::TouchInOrder(layered, q);
  return 0;
}
