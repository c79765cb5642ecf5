// RDF-3X-grade scan storage for one triple set (DESIGN.md section 17):
// four clustered permutation indexes — SPO, PSO, POS, OSP — and nothing
// else. Every constant combination of a triple pattern maps to a
// contiguous prefix range of exactly one of them. Each NodeStore holds
// one, the way each worker of the paper's prototype runs RDF-3X over its
// partition; statistics live in the dataset-wide DatasetIndex.

#ifndef PARQO_STORAGE_PERMUTATION_INDEX_H_
#define PARQO_STORAGE_PERMUTATION_INDEX_H_

#include <cstdint>
#include <span>

#include "rdf/triple.h"
#include "storage/compressed_index.h"

namespace parqo {

/// The four clustered sort orders. Names give key component order: kPso
/// stores (p, s, o) as (k1, k2, k3).
enum class Perm { kSpo, kPso, kPos, kOsp };

/// Triple -> key in `perm` component order.
inline IndexKey PermKey(Perm perm, const Triple& t) {
  switch (perm) {
    case Perm::kSpo: return {t.s, t.p, t.o};
    case Perm::kPso: return {t.p, t.s, t.o};
    case Perm::kPos: return {t.p, t.o, t.s};
    case Perm::kOsp: return {t.o, t.s, t.p};
  }
  return {};
}

/// Key in `perm` component order -> triple.
inline Triple PermTriple(Perm perm, const IndexKey& k) {
  switch (perm) {
    case Perm::kSpo: return {k.k1, k.k2, k.k3};
    case Perm::kPso: return {k.k2, k.k1, k.k3};
    case Perm::kPos: return {k.k3, k.k1, k.k2};
    case Perm::kOsp: return {k.k2, k.k3, k.k1};
  }
  return {};
}

class PermutationIndex {
 public:
  /// Builds all four permutations. `triples` may be a multiset in any
  /// order; order and multiplicity are preserved per permutation.
  explicit PermutationIndex(std::span<const Triple> triples);

  std::size_t NumTriples() const { return spo_.size(); }

  const CompressedKeyIndex& perm(Perm p) const {
    switch (p) {
      case Perm::kSpo: return spo_;
      case Perm::kPso: return pso_;
      case Perm::kPos: return pos_;
      case Perm::kOsp: return osp_;
    }
    return spo_;
  }

  /// The permutation and key range answering a pattern with the given
  /// constants (kInvalidTermId = free position): every constant is pinned
  /// by the range prefix, so scans never re-filter on constants.
  struct RangeChoice {
    Perm perm = Perm::kSpo;
    IndexKey lo;
    IndexKey hi;
  };
  static RangeChoice ChooseRange(TermId s, TermId p, TermId o);

  /// Total compressed bytes: the four permutations' pages + directories.
  /// The dual-sorted-vector layout this replaced was 2 * sizeof(Triple) =
  /// 24 bytes per triple.
  std::size_t ByteSize() const {
    return spo_.ByteSize() + pso_.ByteSize() + pos_.ByteSize() +
           osp_.ByteSize();
  }

 private:
  CompressedKeyIndex spo_, pso_, pos_, osp_;
};

}  // namespace parqo

#endif  // PARQO_STORAGE_PERMUTATION_INDEX_H_
