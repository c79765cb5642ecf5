// Negative fixture: lock acquisitions against the declared order.
// `fine` is declared PARQO_ACQUIRED_AFTER(coarse), and the LockRank
// values (kCacheShard = 20 for coarse, kTrace = 70 for fine) say the
// same thing; Backwards() takes them in reverse. tools/
// check_tsa_fixtures.py asserts clang REJECTS this file (the
// acquired_after relation is checked under -Wthread-safety-beta) and
// tools/parqo_lint_test.py asserts the linter reports lock-rank-order.
// If either starts accepting it, the enforcement is broken — do not
// "fix" this file to make tools pass.

#include "common/thread_annotations.h"

namespace parqo {
namespace {

struct Ordered {
  Mutex coarse{LockRank::kCacheShard};
  Mutex fine PARQO_ACQUIRED_AFTER(coarse) = Mutex(LockRank::kTrace);
  int entries PARQO_GUARDED_BY(coarse) = 0;
  int samples PARQO_GUARDED_BY(fine) = 0;
};

void Backwards(Ordered& ordered) {
  MutexLock inner(ordered.fine);    // rank 70 taken first
  MutexLock outer(ordered.coarse);  // rank 20 inside it: misordered
  ++ordered.entries;
  ++ordered.samples;
}

}  // namespace
}  // namespace parqo

int main() {
  parqo::Ordered ordered;
  parqo::Backwards(ordered);
  return 0;
}
