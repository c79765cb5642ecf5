#include "optimizer/prepared_query.h"

#include <utility>

#include "stats/data_stats.h"

namespace parqo {

StatsSource StatsFromData(const RdfGraph& graph) {
  return [&graph](const JoinGraph& jg) {
    return ComputeStatisticsFromGraph(jg, graph);
  };
}

PreparedQuery::PreparedQuery(std::vector<TriplePattern> patterns,
                             const Partitioner& partitioner,
                             const StatsSource& stats) {
  join_graph_ = std::make_unique<JoinGraph>(std::move(patterns));
  query_graph_ = std::make_unique<QueryGraph>(*join_graph_);
  local_index_ =
      std::make_unique<LocalQueryIndex>(*query_graph_, partitioner);
  estimator_ = std::make_unique<CardinalityEstimator>(*join_graph_,
                                                      stats(*join_graph_));
}

OptimizerInputs PreparedQuery::inputs() const {
  OptimizerInputs in;
  in.join_graph = join_graph_.get();
  in.query_graph = query_graph_.get();
  in.local_index = local_index_.get();
  in.estimator = estimator_.get();
  return in;
}

}  // namespace parqo
