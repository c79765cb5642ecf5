// The generic RDF data partitioning model of Section II-C. Every static
// partitioning method is described by two conceptual phases:
//
//   combining:    ev <- combine(v, G_R)   for each vertex v — assemble the
//                 triples related to v into an indivisible element;
//   distributing: P_i <- distribute(ev)   — place each element on a node.
//
// The optimizer is partition-aware but decoupled from any concrete method:
// all it needs is combine() applied to the *query* graph, which yields the
// maximal local query anchored at each query vertex (Section III-B /
// Appendix A). Concrete partitioners therefore implement two things:
// a data-side PartitionData() used by the execution engine, and the
// query-side MaximalLocalQuery() used by the optimizer.

#ifndef PARQO_PARTITION_PARTITIONER_H_
#define PARQO_PARTITION_PARTITIONER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/tp_set.h"
#include "query/query_graph.h"
#include "rdf/graph.h"

namespace parqo {

/// Which triples each computing node stores. A triple may be stored on
/// several nodes (partitioning elements overlap); that replication is the
/// price paid for larger local queries.
struct PartitionAssignment {
  int num_nodes = 0;
  std::vector<std::vector<TripleIdx>> node_triples;

  std::size_t TotalStored() const {
    std::size_t sum = 0;
    for (const auto& v : node_triples) sum += v.size();
    return sum;
  }
  /// Stored copies per source triple (>= 1 when every triple is covered).
  double ReplicationFactor(std::size_t num_source_triples) const {
    if (num_source_triples == 0) return 0;
    return static_cast<double>(TotalStored()) /
           static_cast<double>(num_source_triples);
  }
};

class Partitioner {
 public:
  virtual ~Partitioner() = default;

  virtual std::string name() const = 0;

  /// Data side: assigns every triple of `graph` to one or more of `n`
  /// nodes according to combine/distribute.
  virtual PartitionAssignment PartitionData(const RdfGraph& graph,
                                            int n) const = 0;

  /// Query side: combine(v, G_Q) — the maximal local query anchored at
  /// query-graph vertex `vertex` (Definition 5 / Appendix A).
  virtual TpSet MaximalLocalQuery(const QueryGraph& gq,
                                  int vertex) const = 0;
};

/// Node index for a term under hash distribution. Deterministic across
/// runs (depends only on the term id).
int HashToNode(TermId id, int n);

/// Partitioning-quality summary computable from any PartitionAssignment,
/// so methods with very different combine() phases stay comparable.
struct PartitionAnalysis {
  double replication_factor = 0;
  std::uint64_t total_stored = 0;
  /// Stored triples per node (load balance).
  std::vector<std::uint64_t> node_stored;
  /// RDF-graph edges whose endpoints live on different nodes, under the
  /// primary-owner rule: a vertex's owner is the node storing the most of
  /// its incident triples (ties break to the lowest node id). A cut edge
  /// is one a traversal might cross the network for.
  std::uint64_t cut_edges = 0;
  std::uint64_t total_edges = 0;
};

/// Computes the summary of `assignment` over `graph`.
PartitionAnalysis AnalyzeAssignment(const RdfGraph& graph,
                                    const PartitionAssignment& assignment);

}  // namespace parqo

#endif  // PARQO_PARTITION_PARTITIONER_H_
