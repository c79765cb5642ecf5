#include "optimizer/parallel_optimizer.h"

#include <algorithm>
#include <functional>

#include "common/status.h"

namespace parqo {

ParallelOptimizer::ParallelOptimizer(int num_threads)
    : pool_(num_threads > 0 ? num_threads
                            : ThreadPool::DefaultConcurrency()) {}

std::vector<OptimizeResult> ParallelOptimizer::OptimizeBatch(
    const std::vector<BatchQuery>& batch, const OptimizeOptions& options) {
  // One PreparedQuery per entry: its estimator memo is single-threaded.
  std::vector<const PreparedQuery*> queries;
  queries.reserve(batch.size());
  for (const BatchQuery& item : batch) {
    PARQO_CHECK(item.query != nullptr);
    queries.push_back(item.query);
  }
  std::sort(queries.begin(), queries.end(), std::less<>());
  const bool no_shared_prepared_query =
      std::adjacent_find(queries.begin(), queries.end()) == queries.end();
  PARQO_CHECK(no_shared_prepared_query);

  std::vector<OptimizeResult> results(batch.size());
  pool_.ParallelFor(static_cast<int>(batch.size()), [&](int i) {
    const BatchQuery& item = batch[static_cast<std::size_t>(i)];
    results[static_cast<std::size_t>(i)] =
        Optimize(item.algorithm, item.query->inputs(), options);
  });
  return results;
}

std::vector<OptimizeResult> ParallelOptimizer::OptimizeBatch(
    Algorithm algorithm, const std::vector<const PreparedQuery*>& queries,
    const OptimizeOptions& options) {
  std::vector<BatchQuery> batch;
  batch.reserve(queries.size());
  for (const PreparedQuery* q : queries) batch.push_back({algorithm, q});
  return OptimizeBatch(batch, options);
}

}  // namespace parqo
