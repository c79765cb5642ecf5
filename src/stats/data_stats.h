// Exact statistics computed from a loaded dataset: |tp| is the number of
// matching triples and B(tp, v) the number of distinct bindings of v among
// them. The paper's prototype gets these from RDF-3X's statistics; this
// reproduction answers them from the aggregate count tables of the one
// dataset-wide index, RdfGraph::Index() (storage/dataset_index.h), in
// O(log n) per pattern — no scans, and never from a per-node store —
// falling back to a brute-force pass only for repeated-variable patterns
// the aggregates cannot express. The values are identical to an exact
// scan either way.

#ifndef PARQO_STATS_DATA_STATS_H_
#define PARQO_STATS_DATA_STATS_H_

#include "query/join_graph.h"
#include "rdf/graph.h"
#include "stats/statistics.h"

namespace parqo {

/// Computes |tp| and B(tp, v) for all patterns of `jg` against `graph`.
/// Patterns with no matches get cardinality 1 (the estimator's floor).
QueryStatistics ComputeStatisticsFromGraph(const JoinGraph& jg,
                                           const RdfGraph& graph);

}  // namespace parqo

#endif  // PARQO_STATS_DATA_STATS_H_
