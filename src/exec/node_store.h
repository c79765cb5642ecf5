// Per-node triple storage of the simulated cluster: one PermutationIndex
// (storage/permutation_index.h) — four clustered permutation indexes and
// nothing else. Every constant combination of a triple pattern is one
// contiguous prefix-range scan, including variable predicates, which
// seek SPO/OSP instead of degenerating to a linear filter pass. Scans
// decode each key straight into BindingTable columns. This
// plays the role RDF-3X plays on each worker in the paper's prototype;
// the statistics the optimizer reads come from the one dataset-wide
// index (RdfGraph::Index()), never from a node. A scan can also take a
// key filter (sideways information passing, DESIGN.md section 13): the
// executor passes the keys a join sibling produced, and the scan returns
// only rows whose binding of the filter variable is one of them.

#ifndef PARQO_EXEC_NODE_STORE_H_
#define PARQO_EXEC_NODE_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "exec/binding_table.h"
#include "exec/join_kernel.h"
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

/// A sorted, distinct set of TermIds with an open-addressed hash table
/// for unordered membership probes. Read-only between builds, so one set
/// can be shared by every node's scan.
class KeySet {
 public:
  KeySet() = default;
  /// `sorted` must be ascending and duplicate-free.
  explicit KeySet(std::vector<TermId> sorted);

  /// Rebuilds the set from `sorted` (ascending, duplicate-free) in the
  /// buffers it already holds, so a set rebuilt no larger than before
  /// allocates nothing.
  void Assign(std::span<const TermId> sorted);

  const std::vector<TermId>& keys() const { return keys_; }
  std::size_t size() const { return keys_.size(); }
  /// Heap bytes the set holds.
  std::size_t Bytes() const {
    return CapacityBytes(keys_) + CapacityBytes(slots_);
  }

  bool Contains(TermId t) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = JoinKeyHash(t) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == t) return true;
      if (slots_[i] == kInvalidTermId) return false;
    }
  }

 private:
  void Hash();

  std::vector<TermId> keys_;
  std::vector<TermId> slots_;  // kInvalidTermId marks a vacant slot
};

/// Keep only rows whose binding of `var` is in `*keys`. A null `keys`
/// means no filter.
struct ScanFilter {
  VarId var = kInvalidVarId;
  const KeySet* keys = nullptr;
};

class NodeStore {
 public:
  explicit NodeStore(std::vector<Triple> triples);

  NodeStore(NodeStore&&) = default;
  NodeStore& operator=(NodeStore&&) = default;

  std::size_t NumTriples() const { return index_.NumTriples(); }

  /// Scans this node's triples for `pattern` matches via the permutation
  /// index whose prefix pins every constant; only repeated-variable
  /// equality is filtered during page decode. A scan is one pass over its
  /// pages, writing each decoded key straight into the output columns:
  /// there is no page buffer and no per-row staging, and rows come out in
  /// index-key order. The result carries sorted-by metadata for the first
  /// free key component, which is what lets the batch engine merge-join
  /// co-ordered inputs.
  ///
  /// With a `filter`, the result is the unfiltered scan restricted to
  /// rows whose `filter.var` binding is a key. The access path is the one
  /// that decodes fewer index entries (DESIGN.md section 13): bound seeks,
  /// one per key with the key substituted as a constant, keys ascending,
  /// so the rows come out sorted by the filter variable; or one decode of
  /// the range that drops non-keys by a KeySet::Contains probe. A seek
  /// costs about half a restart block; keys on the range's sort
  /// component always seek, since their seeks continue from one cursor
  /// and read no block the decode would not.
  ///
  /// Columns start at the entries of the restart blocks the range spans
  /// when that bounds the rows (an unfiltered scan with no repeated
  /// variable), else at one block's worth, doubling. With `decoded`, the
  /// index entries the scan decoded are added to *decoded.
  BindingTable Scan(const ResolvedPattern& pattern,
                    const ScanFilter& filter = {},
                    std::uint64_t* decoded = nullptr) const;

  /// Scan into the caller's columns: `out` holds one column per entry of
  /// `pattern.schema`, which the scan overwrites and whose capacity it
  /// keeps, so a caller that reuses them (the executor keeps them per
  /// partition) sizes them once. Returns the rows written and the
  /// variable they are sorted on.
  RowsWritten ScanInto(const ResolvedPattern& pattern,
                       std::vector<TermId>* out, const ScanFilter& filter,
                       std::uint64_t* decoded) const;

  /// Compressed footprint of this node's four permutations, for the
  /// bytes-per-triple storage report (the dual-vector layout this
  /// replaced was 24 B).
  std::size_t IndexBytes() const { return index_.ByteSize(); }

 private:
  PermutationIndex index_;
};

}  // namespace parqo

#endif  // PARQO_EXEC_NODE_STORE_H_
