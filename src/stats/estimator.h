// Cardinality estimation for subqueries, following Appendix B:
//
//   |tp1 JOIN tp2| = |tp1|*|tp2| / prod_{v shared} max(B(tp1,v), B(tp2,v))
//
// extended to n patterns by folding in a canonical order (Eq. 11). Folding
// in ascending triple-pattern index makes the estimate a pure function of
// the subquery bitset, so every optimizer sees identical statistics and
// memoized plans can be compared across algorithms.
//
// The memo is striped over mutex-guarded shards because one estimator can
// serve several optimizer runs at once: ParallelOptimizer::OptimizeBatch
// may hand the same PreparedQuery to two workers. Each shard pairs a flat
// open-addressed index (FlatTpSetMap, bitset keys probed inline — no
// per-node allocation, no pointer chase) with a deque that owns the
// derived entries: deque growth never moves existing elements, so a
// pointer obtained under the shard lock stays valid after it is released.
// Racing derivations of the same subquery compute identical values (the
// derivation is a pure function of the bitset) and the first insert wins.

#ifndef PARQO_STATS_ESTIMATOR_H_
#define PARQO_STATS_ESTIMATOR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/flat_map.h"
#include "common/thread_annotations.h"

#include "common/tp_set.h"
#include "query/join_graph.h"
#include "stats/statistics.h"

namespace parqo {

class CardinalityEstimator {
 public:
  CardinalityEstimator(const JoinGraph& jg, QueryStatistics stats);

  CardinalityEstimator(const CardinalityEstimator&) = delete;
  CardinalityEstimator& operator=(const CardinalityEstimator&) = delete;

  /// Estimated cardinality of the join of the subquery's patterns.
  /// Memoized and safe to call concurrently; `sq` must be non-empty.
  double Cardinality(TpSet sq) const;

  /// Estimated distinct bindings of variable v in the subquery's result.
  double Bindings(TpSet sq, VarId v) const;

  const QueryStatistics& statistics() const { return stats_; }
  const JoinGraph& join_graph() const { return *jg_; }

  /// Memo hit/miss counts across all Cardinality()/Bindings() calls.
  /// Only collected while MetricsEnabled() (zero otherwise), so the hot
  /// lookup stays a single branch in the default configuration.
  std::uint64_t memo_hits() const {
    return memo_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t memo_misses() const {
    return memo_misses_.load(std::memory_order_relaxed);
  }

 private:
  struct Derived {
    double cardinality = 1.0;
    std::vector<double> bindings;  // per VarId; 0 when var absent
  };

  static constexpr std::size_t kShards = 16;  // power of two

  struct Shard {
    /// Never held across the Derive recursion (which re-enters other
    /// shards at the same rank): lookups and inserts lock, the
    /// derivation itself runs unlocked.
    Mutex mu{LockRank::kEstimatorShard};
    FlatTpSetMap<const Derived*> map PARQO_GUARDED_BY(mu);
    // Element addresses are stable (deque growth never moves entries), so
    // a pointer published through `map` outlives the lock that minted it.
    std::deque<Derived> storage PARQO_GUARDED_BY(mu);
  };

  const Derived& Derive(TpSet sq) const;

  const JoinGraph* jg_;
  QueryStatistics stats_;
  mutable std::array<Shard, kShards> shards_;
  mutable std::atomic<std::uint64_t> memo_hits_{0};
  mutable std::atomic<std::uint64_t> memo_misses_{0};
};

}  // namespace parqo

#endif  // PARQO_STATS_ESTIMATOR_H_
