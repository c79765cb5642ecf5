// Exact statistics computed from a loaded dataset: |tp| is the number of
// matching triples and B(tp, v) the number of distinct bindings of v among
// them. The paper's prototype gets these from RDF-3X's statistics; this
// reproduction answers them from the aggregate count tables of the one
// dataset-wide index, RdfGraph::Index() (storage/dataset_index.h), in
// O(log n) per pattern — no scans, and never from a per-node store —
// falling back to a brute-force pass only for repeated-variable patterns
// the aggregates cannot express. The values are identical to an exact
// scan either way.
//
// DataStatsOptions::pairwise_joins additionally measures the EXACT join
// cardinality |tp_i JOIN tp_j| of every pattern pair sharing a variable
// (hash-join over index range scans, smaller side builds). The estimator
// uses these to replace Eq. 11's independence assumption with measured
// pairwise selectivities; without them it reproduces the baseline
// estimate bit-for-bit.

#ifndef PARQO_STATS_DATA_STATS_H_
#define PARQO_STATS_DATA_STATS_H_

#include <cstddef>

#include "query/join_graph.h"
#include "rdf/graph.h"
#include "stats/statistics.h"

namespace parqo {

struct DataStatsOptions {
  /// Also fill QueryStatistics::JoinCardinality for every pattern pair
  /// sharing at least one variable (repeated-variable patterns excluded).
  bool pairwise_joins = false;
  /// Skip a pair when its SMALLER side matches more rows than this (the
  /// build table would not stay cheap); the estimator falls back to
  /// Eq. 11 for skipped pairs.
  std::size_t pairwise_cap = 4u << 20;
};

/// Computes |tp| and B(tp, v) for all patterns of `jg` against `graph`,
/// plus the optional pairwise join cardinalities. Patterns with no
/// matches get cardinality 1 (the estimator's floor).
QueryStatistics ComputeStatisticsFromGraph(
    const JoinGraph& jg, const RdfGraph& graph,
    const DataStatsOptions& opts = DataStatsOptions{});

}  // namespace parqo

#endif  // PARQO_STATS_DATA_STATS_H_
