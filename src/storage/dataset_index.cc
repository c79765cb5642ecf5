#include "storage/dataset_index.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "storage/permutation_index.h"

namespace parqo {
namespace {

// Two-constant count from a pair table: its (a, b, count) entry's count.
std::uint64_t PairCount(const CompressedKeyIndex& pairs, TermId a,
                        TermId b) {
  std::uint64_t out = 0;
  pairs.ScanRange({a, b, 0}, {a, b, kMaxTermId},
                  [&](const IndexKey& k) { out = k.k3; });
  return out;
}

// One (k1, k2, count) entry per distinct leading pair (k1, k2) of the
// triples' keys in `perm` order, sorted: the pair table of that
// permutation. The packed 64-bit sort keys are freed on return.
std::vector<IndexKey> Pairs(std::span<const Triple> triples, Perm perm) {
  std::vector<std::uint64_t> keys(triples.size());
  for (std::size_t i = 0; i < triples.size(); ++i) {
    const IndexKey k = PermKey(perm, triples[i]);
    keys[i] = (std::uint64_t{k.k1} << 32) | k.k2;
  }
  std::sort(keys.begin(), keys.end());
  std::vector<IndexKey> out;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i > 0 && keys[i] == keys[i - 1]) {
      ++out.back().k3;
    } else {
      out.push_back({static_cast<TermId>(keys[i] >> 32),
                     static_cast<TermId>(keys[i]), 1});
    }
  }
  return out;
}

// (a, b, count) pairs re-keyed as (b, a, count), sorted.
std::vector<IndexKey> Swapped(std::vector<IndexKey> pairs) {
  for (IndexKey& k : pairs) std::swap(k.k1, k.k2);
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

// The unary table of the keys leading `a` and `b` (the same key set):
// count sums a's pair counts, distinct_a counts a's pairs per key and
// distinct_b counts b's.
std::vector<DatasetIndex::UnaryStats> Unary(const std::vector<IndexKey>& a,
                                            const std::vector<IndexKey>& b) {
  std::vector<DatasetIndex::UnaryStats> out;
  for (const IndexKey& k : a) {
    if (out.empty() || out.back().key != k.k1) out.push_back({k.k1});
    out.back().count += k.k3;
    ++out.back().distinct_a;
  }
  std::size_t u = 0;
  for (const IndexKey& k : b) {
    while (u < out.size() && out[u].key < k.k1) ++u;
    PARQO_CHECK(u < out.size() && out[u].key == k.k1);
    ++out[u].distinct_b;
  }
  return out;
}

}  // namespace

DatasetIndex::DatasetIndex(std::span<const Triple> triples)
    : num_triples_(triples.size()) {
  std::vector<IndexKey> os = Pairs(triples, Perm::kOsp);
  s_stats_ = Unary(Pairs(triples, Perm::kSpo), Swapped(os));
  std::vector<IndexKey> po = Pairs(triples, Perm::kPos);
  o_stats_ = Unary(os, Swapped(po));
  os_counts_.Build(os);
  os = {};
  std::vector<IndexKey> ps = Pairs(triples, Perm::kPso);
  p_stats_ = Unary(ps, po);
  ps_counts_.Build(ps);
  po_counts_.Build(po);
}

DatasetIndex::UnaryStats DatasetIndex::Find(
    const std::vector<UnaryStats>& table, TermId key) {
  auto it = std::lower_bound(
      table.begin(), table.end(), key,
      [](const UnaryStats& e, TermId k) { return e.key < k; });
  return it != table.end() && it->key == key ? *it : UnaryStats{};
}

std::uint64_t DatasetIndex::CountPattern(TermId s, TermId p,
                                         TermId o) const {
  const bool bs = s != kInvalidTermId;
  const bool bp = p != kInvalidTermId;
  const bool bo = o != kInvalidTermId;
  PARQO_CHECK(!(bs && bp && bo));
  if (bp && bs) return PairCount(ps_counts_, p, s);
  if (bp && bo) return PairCount(po_counts_, p, o);
  if (bs && bo) return PairCount(os_counts_, o, s);
  if (bp) return StatsForP(p).count;
  if (bs) return StatsForS(s).count;
  if (bo) return StatsForO(o).count;
  return NumTriples();
}

std::size_t DatasetIndex::ByteSize() const {
  return ps_counts_.ByteSize() + po_counts_.ByteSize() +
         os_counts_.ByteSize() +
         (s_stats_.size() + p_stats_.size() + o_stats_.size()) *
             sizeof(UnaryStats);
}

}  // namespace parqo
