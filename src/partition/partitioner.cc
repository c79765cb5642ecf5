#include "partition/partitioner.h"

#include <algorithm>
#include <cstddef>

namespace parqo {

PartitionAnalysis AnalyzeAssignment(const RdfGraph& graph,
                                    const PartitionAssignment& assignment) {
  PartitionAnalysis out;
  out.total_edges = graph.NumTriples();
  out.total_stored = assignment.TotalStored();
  out.replication_factor = assignment.ReplicationFactor(graph.NumTriples());
  const int n = assignment.num_nodes;
  out.node_stored.reserve(assignment.node_triples.size());
  for (const auto& v : assignment.node_triples) {
    out.node_stored.push_back(v.size());
  }

  if (n > 0 && graph.NumTriples() > 0) {
    // Incident-triple counts per (vertex, node), flattened; vertex ids
    // are dense dictionary ids so direct indexing beats hashing.
    TermId max_v = 0;
    for (TermId v : graph.vertices()) max_v = std::max(max_v, v);
    std::vector<std::uint32_t> counts(
        (static_cast<std::size_t>(max_v) + 1) * n, 0);
    const std::vector<Triple>& triples = graph.triples();
    for (int i = 0; i < n; ++i) {
      for (TripleIdx t : assignment.node_triples[i]) {
        const Triple& tr = triples[t];
        ++counts[static_cast<std::size_t>(tr.s) * n + i];
        ++counts[static_cast<std::size_t>(tr.o) * n + i];
      }
    }
    auto owner = [&](TermId v) {
      const std::uint32_t* row = counts.data() +
                                 static_cast<std::size_t>(v) * n;
      int best = 0;
      for (int i = 1; i < n; ++i) {
        if (row[i] > row[best]) best = i;
      }
      return best;
    };
    for (const Triple& tr : triples) {
      if (owner(tr.s) != owner(tr.o)) ++out.cut_edges;
    }
  }

  return out;
}

}  // namespace parqo
