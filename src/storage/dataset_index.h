// Dataset-wide statistics index (DESIGN.md section 17): exact per-pattern
// cardinalities |tp| and distinct-binding counts B(tp, v) — the Eq. 10–11
// inputs — in O(log n) without touching permutation leaves:
//
//   PS -> count, PO -> count, OS -> count   (compressed pair tables)
//   S/P/O -> (count, distinct counts of the other two positions)
//   global: |T|, distinct S / P / O
//
// and nothing else: the tables are folded from sorted key vectors that
// die with the constructor, so no permutation of the whole graph is
// kept. RdfGraph::Index() builds exactly one, lazily, over the whole
// graph; per-node stores hold only a PermutationIndex, as RDF-3X does on
// each host while the statistics sit at the coordinator.

#ifndef PARQO_STORAGE_DATASET_INDEX_H_
#define PARQO_STORAGE_DATASET_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "rdf/triple.h"
#include "storage/compressed_index.h"

namespace parqo {

class DatasetIndex {
 public:
  /// Builds all aggregates. `triples` may be a multiset in any order;
  /// counts include every copy.
  explicit DatasetIndex(std::span<const Triple> triples);

  std::size_t NumTriples() const { return num_triples_; }

  /// Exact number of matches of the constant mask (kInvalidTermId =
  /// free), by aggregate/directory lookups alone. At least one position
  /// must be free: an all-constant pattern has no aggregate to answer it.
  std::uint64_t CountPattern(TermId s, TermId p, TermId o) const;

  /// Aggregated per-key statistics; all zeros when the key does not
  /// occur. The distinct counts cover the other two triple positions in
  /// (s,p,o) order: StatsForS(s) = {count, distinct p, distinct o},
  /// StatsForP(p) = {count, distinct s, distinct o}, StatsForO(o) =
  /// {count, distinct s, distinct p}.
  struct UnaryStats {
    TermId key = 0;
    std::uint32_t count = 0;
    std::uint32_t distinct_a = 0;
    std::uint32_t distinct_b = 0;
  };
  UnaryStats StatsForS(TermId s) const { return Find(s_stats_, s); }
  UnaryStats StatsForP(TermId p) const { return Find(p_stats_, p); }
  UnaryStats StatsForO(TermId o) const { return Find(o_stats_, o); }

  std::uint64_t distinct_s() const { return s_stats_.size(); }
  std::uint64_t distinct_p() const { return p_stats_.size(); }
  std::uint64_t distinct_o() const { return o_stats_.size(); }

  /// Total bytes: aggregated pair tables + unary tables.
  std::size_t ByteSize() const;

 private:
  static UnaryStats Find(const std::vector<UnaryStats>& table, TermId key);

  std::size_t num_triples_;
  /// Aggregated pair tables: entries (a, b, count) keyed on the leading
  /// two components of the matching permutation.
  CompressedKeyIndex ps_counts_;  // (p, s) -> count
  CompressedKeyIndex po_counts_;  // (p, o) -> count
  CompressedKeyIndex os_counts_;  // (o, s) -> count
  /// Unary tables, sorted by key.
  std::vector<UnaryStats> s_stats_, p_stats_, o_stats_;
};

}  // namespace parqo

#endif  // PARQO_STORAGE_DATASET_INDEX_H_
