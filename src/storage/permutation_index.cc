#include "storage/permutation_index.h"

#include <algorithm>
#include <vector>

namespace parqo {

PermutationIndex::PermutationIndex(std::span<const Triple> triples) {
  std::vector<IndexKey> keys(triples.size());
  auto build = [&](Perm perm, CompressedKeyIndex& index) {
    for (std::size_t i = 0; i < triples.size(); ++i) {
      keys[i] = PermKey(perm, triples[i]);
    }
    std::sort(keys.begin(), keys.end());
    index.Build(keys);
  };
  build(Perm::kSpo, spo_);
  build(Perm::kPso, pso_);
  build(Perm::kPos, pos_);
  build(Perm::kOsp, osp_);
}

PermutationIndex::RangeChoice PermutationIndex::ChooseRange(TermId s,
                                                            TermId p,
                                                            TermId o) {
  const bool bs = s != kInvalidTermId;
  const bool bp = p != kInvalidTermId;
  const bool bo = o != kInvalidTermId;
  RangeChoice rc;
  if (bp && bs) {
    rc.perm = Perm::kPso;
    rc.lo = {p, s, bo ? o : 0};
    rc.hi = {p, s, bo ? o : kMaxTermId};
  } else if (bp && bo) {
    rc.perm = Perm::kPos;
    rc.lo = {p, o, 0};
    rc.hi = {p, o, kMaxTermId};
  } else if (bp) {
    rc.perm = Perm::kPso;
    rc.lo = {p, 0, 0};
    rc.hi = {p, kMaxTermId, kMaxTermId};
  } else if (bs && bo) {
    rc.perm = Perm::kOsp;
    rc.lo = {o, s, 0};
    rc.hi = {o, s, kMaxTermId};
  } else if (bs) {
    rc.perm = Perm::kSpo;
    rc.lo = {s, 0, 0};
    rc.hi = {s, kMaxTermId, kMaxTermId};
  } else if (bo) {
    rc.perm = Perm::kOsp;
    rc.lo = {o, 0, 0};
    rc.hi = {o, kMaxTermId, kMaxTermId};
  } else {
    rc.perm = Perm::kSpo;
    rc.lo = {0, 0, 0};
    rc.hi = {kMaxTermId, kMaxTermId, kMaxTermId};
  }
  return rc;
}

}  // namespace parqo
