// Owns everything the optimizer needs for one query — join graph, query
// graph, maximal-local-query index, statistics, and estimator — built in
// the right order from a pattern list, a partitioner, and a statistics
// source. Benches, tests, and examples use this instead of wiring the
// five structures by hand.

#ifndef PARQO_OPTIMIZER_PREPARED_QUERY_H_
#define PARQO_OPTIMIZER_PREPARED_QUERY_H_

#include <functional>
#include <memory>
#include <vector>

#include "optimizer/optimizer.h"
#include "partition/local_query_index.h"
#include "query/join_graph.h"
#include "query/query_graph.h"
#include "rdf/graph.h"
#include "stats/data_stats.h"
#include "stats/estimator.h"

namespace parqo {

/// Produces the per-pattern statistics once the join graph (and hence the
/// VarId space) exists.
using StatsSource = std::function<QueryStatistics(const JoinGraph&)>;

/// A StatsSource computing exact statistics from a dataset.
StatsSource StatsFromData(const RdfGraph& graph);

class PreparedQuery {
 public:
  PreparedQuery(std::vector<TriplePattern> patterns,
                const Partitioner& partitioner, const StatsSource& stats);

  PreparedQuery(const PreparedQuery&) = delete;
  PreparedQuery& operator=(const PreparedQuery&) = delete;

  const JoinGraph& join_graph() const { return *join_graph_; }
  const QueryGraph& query_graph() const { return *query_graph_; }
  const LocalQueryIndex& local_index() const { return *local_index_; }
  const CardinalityEstimator& estimator() const { return *estimator_; }

  /// Borrowed views for Optimize(); valid while this object lives.
  OptimizerInputs inputs() const;

 private:
  std::unique_ptr<JoinGraph> join_graph_;
  std::unique_ptr<QueryGraph> query_graph_;
  std::unique_ptr<LocalQueryIndex> local_index_;
  std::unique_ptr<CardinalityEstimator> estimator_;
};

}  // namespace parqo

#endif  // PARQO_OPTIMIZER_PREPARED_QUERY_H_
