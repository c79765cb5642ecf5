#include "exec/cluster.h"

#include "common/check.h"

namespace parqo {

Cluster::Cluster(const RdfGraph& graph,
                 const PartitionAssignment& assignment)
    : graph_(&graph) {
  nodes_.reserve(assignment.num_nodes);
  // Each node's store must be a set: the graph's triples are distinct,
  // so no node may receive one TripleIdx twice. The executor's dedup
  // elision rests on this (DESIGN.md section 13).
  std::vector<int> last_node(graph.NumTriples(), -1);
  for (const auto& idxs : assignment.node_triples) {
    const int node = static_cast<int>(nodes_.size());
    std::vector<Triple> triples;
    triples.reserve(idxs.size());
    for (TripleIdx i : idxs) {
      PARQO_CHECK(last_node[i] != node);
      last_node[i] = node;
      triples.push_back(graph.triples()[i]);
    }
    nodes_.emplace_back(std::move(triples));
  }
}

std::size_t Cluster::TotalStored() const {
  std::size_t sum = 0;
  for (const NodeStore& n : nodes_) sum += n.NumTriples();
  return sum;
}

}  // namespace parqo
