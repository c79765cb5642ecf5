// Per-node triple storage of the simulated cluster: one PermutationIndex
// (storage/permutation_index.h) — four clustered permutation indexes and
// nothing else. Every constant combination of a triple pattern is one
// contiguous prefix-range scan, including variable predicates, which
// seek SPO/OSP instead of degenerating to a linear filter pass. Scans
// decompress page-at-a-time directly into BindingTable columns. This
// plays the role RDF-3X plays on each worker in the paper's prototype;
// the statistics the optimizer reads come from the one dataset-wide
// index (RdfGraph::Index()), never from a node.

#ifndef PARQO_EXEC_NODE_STORE_H_
#define PARQO_EXEC_NODE_STORE_H_

#include <vector>

#include "exec/binding_table.h"
#include "query/join_graph.h"
#include "rdf/triple.h"
#include "storage/permutation_index.h"

namespace parqo {

/// A triple pattern with constants resolved to TermIds; kInvalidTermId in
/// a position means "variable". Produced by BindPattern (executor.h).
struct ResolvedPattern {
  TermId s = kInvalidTermId;
  TermId p = kInvalidTermId;
  TermId o = kInvalidTermId;
  VarId var_s = kInvalidVarId;
  VarId var_p = kInvalidVarId;
  VarId var_o = kInvalidVarId;
  /// Sorted distinct variables (the scan output schema).
  std::vector<VarId> schema;
  /// True when the pattern has an unbindable constant (absent from the
  /// dictionary): it matches nothing anywhere.
  bool unmatchable = false;
};

class NodeStore {
 public:
  explicit NodeStore(std::vector<Triple> triples);

  NodeStore(NodeStore&&) = default;
  NodeStore& operator=(NodeStore&&) = default;

  std::size_t NumTriples() const { return index_.NumTriples(); }

  /// Scans this node's triples for `pattern` matches via the permutation
  /// index whose prefix pins every constant; only repeated-variable
  /// equality is filtered during page decode. Pages are the scan morsels:
  /// with `parallel`, groups of ~`morsel_rows` entries decode over the
  /// shared pool and are reduced in page order, so output row order is
  /// index-key order regardless of morseling (morsel_rows == 0 means one
  /// morsel). The result carries sorted-by metadata for the first free
  /// key component, which is what lets the batch engine merge-join
  /// co-ordered inputs.
  BindingTable Scan(const ResolvedPattern& pattern,
                    std::size_t morsel_rows = 0, bool parallel = false) const;

  /// Compressed footprint of this node's four permutations, for the
  /// bytes-per-triple storage report (the dual-vector layout this
  /// replaced was 24 B).
  std::size_t IndexBytes() const { return index_.ByteSize(); }

 private:
  PermutationIndex index_;
};

}  // namespace parqo

#endif  // PARQO_EXEC_NODE_STORE_H_
