// Cardinality estimation for subqueries, following Appendix B:
//
//   |tp1 JOIN tp2| = |tp1|*|tp2| / prod_{v shared} max(B(tp1,v), B(tp2,v))
//
// extended to n patterns by folding in a canonical order (Eq. 11). Folding
// in ascending triple-pattern index makes the estimate a pure function of
// the subquery bitset, so every optimizer sees identical statistics and
// memoized plans can be compared across algorithms.
//
// The memo is single-threaded: an estimator belongs to one PreparedQuery,
// and one optimizer run uses it at a time. Concurrent runs each prepare a
// query of their own, as every QueryServer session does. A flat
// open-addressed index (FlatTpSetMap, bitset keys probed inline — no
// per-node allocation, no pointer chase) maps each derived subquery to
// its entry in one flat array of doubles. Deriving a subquery allocates
// nothing of its own: a heap-allocated binding vector per entry let
// glibc trim and re-fault the heap between optimizer runs, which
// quadrupled the p90 of perfbench plan_cold's smallest queries.

#ifndef PARQO_STATS_ESTIMATOR_H_
#define PARQO_STATS_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
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
  /// Memoized; `sq` must be non-empty. Not safe to call concurrently.
  double Cardinality(TpSet sq) const;

  /// Estimated distinct bindings of variable v in the subquery's result.
  double Bindings(TpSet sq, VarId v) const;

  const QueryStatistics& statistics() const { return stats_; }
  const JoinGraph& join_graph() const { return *jg_; }

  /// Memo hit/miss counts across all Cardinality()/Bindings() calls.
  std::uint64_t memo_hits() const { return memo_hits_; }
  std::uint64_t memo_misses() const { return memo_misses_; }

 private:
  /// Offset of sq's entry in entries_: the cardinality, then B(sq, v)
  /// per VarId (0 when v is absent).
  std::size_t Derive(TpSet sq) const;

  const JoinGraph* jg_;
  QueryStatistics stats_;
  mutable FlatTpSetMap<std::size_t> memo_;
  mutable std::vector<double> entries_;
  mutable std::uint64_t memo_hits_ = 0;
  mutable std::uint64_t memo_misses_ = 0;
};

}  // namespace parqo

#endif  // PARQO_STATS_ESTIMATOR_H_
