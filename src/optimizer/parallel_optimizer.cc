#include "optimizer/parallel_optimizer.h"

#include "common/status.h"

namespace parqo {

ParallelOptimizer::ParallelOptimizer(int num_threads)
    : pool_(num_threads > 0 ? num_threads
                            : ThreadPool::DefaultConcurrency()) {}

std::vector<OptimizeResult> ParallelOptimizer::OptimizeBatch(
    const std::vector<BatchQuery>& batch, const OptimizeOptions& options) {
  std::vector<OptimizeResult> results(batch.size());
  pool_.ParallelFor(static_cast<int>(batch.size()), [&](int i) {
    const BatchQuery& item = batch[static_cast<std::size_t>(i)];
    PARQO_CHECK(item.query != nullptr);
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
