// Inter-query parallelism: optimize a batch of prepared queries
// concurrently on a fixed-size worker pool (sized by hardware_concurrency
// by default, reused across batches — never thread-per-task). This is the
// workload shape of a multi-user SPARQL endpoint: a stream of incoming
// queries whose optimization must keep up with arrival rate, as assumed by
// the distributed engines the paper compares against (Partout, PHD-Store).
//
// Each query is optimized exactly as Optimize() would — same inputs, same
// statistics, same options, one thread per query — so batch results are
// bit-identical in plan cost to a sequential loop, independent of
// scheduling order. Entries must not share a PreparedQuery: its
// CardinalityEstimator memo is single-threaded (stats/estimator.h), so
// OptimizeBatch aborts on a batch that names one PreparedQuery twice.

#ifndef PARQO_OPTIMIZER_PARALLEL_OPTIMIZER_H_
#define PARQO_OPTIMIZER_PARALLEL_OPTIMIZER_H_

#include <vector>

#include "common/thread_pool.h"
#include "optimizer/optimizer.h"
#include "optimizer/prepared_query.h"

namespace parqo {

/// One batch entry: an algorithm applied to a prepared query (borrowed;
/// must outlive the OptimizeBatch call).
struct BatchQuery {
  Algorithm algorithm = Algorithm::kTdAuto;
  const PreparedQuery* query = nullptr;
};

class ParallelOptimizer {
 public:
  /// `num_threads` <= 0 selects hardware_concurrency. The pool is created
  /// once and reused for every batch.
  explicit ParallelOptimizer(int num_threads = 0);

  int num_threads() const { return pool_.size(); }

  /// Optimizes every entry concurrently, one worker per entry; results
  /// come back in input order. PARQO_CHECKs that every entry names a
  /// distinct, non-null PreparedQuery.
  std::vector<OptimizeResult> OptimizeBatch(
      const std::vector<BatchQuery>& batch, const OptimizeOptions& options);

  /// Convenience overload: one algorithm over a vector of queries.
  std::vector<OptimizeResult> OptimizeBatch(
      Algorithm algorithm, const std::vector<const PreparedQuery*>& queries,
      const OptimizeOptions& options);

 private:
  ThreadPool pool_;
};

}  // namespace parqo

#endif  // PARQO_OPTIMIZER_PARALLEL_OPTIMIZER_H_
