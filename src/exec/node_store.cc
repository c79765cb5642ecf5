#include "exec/node_store.h"

#include <algorithm>

#include "common/morsel.h"

namespace parqo {
namespace {

// Triple-field order of each permutation's key components, as indexes
// into (s, p, o): the first FREE component is the scan's sort key.
constexpr int kPermFields[4][3] = {
    {0, 1, 2},  // kSpo
    {1, 0, 2},  // kPso
    {1, 2, 0},  // kPos
    {2, 0, 1},  // kOsp
};

}  // namespace

NodeStore::NodeStore(std::vector<Triple> triples) : index_(triples) {}

BindingTable NodeStore::Scan(const ResolvedPattern& pattern,
                             std::size_t morsel_rows, bool parallel) const {
  BindingTable out(pattern.schema);
  if (pattern.unmatchable) return out;

  const PermutationIndex::RangeChoice rc =
      PermutationIndex::ChooseRange(pattern.s, pattern.p, pattern.o);
  const CompressedKeyIndex& idx = index_.perm(rc.perm);
  const auto [first_page, end_page] = idx.PageSpan(rc.lo, rc.hi);
  const std::size_t num_pages = end_page - first_page;
  if (num_pages == 0) return out;

  // Every constant is pinned by the range prefix; only repeated-variable
  // equality (?x p ?x) is filtered during decode.
  const bool need_so =
      pattern.var_s != kInvalidVarId && pattern.var_s == pattern.var_o;
  const bool need_sp =
      pattern.var_s != kInvalidVarId && pattern.var_s == pattern.var_p;
  const bool need_po =
      pattern.var_p != kInvalidVarId && pattern.var_p == pattern.var_o;
  const bool filter = need_so || need_sp || need_po;

  // Pages are the scan morsels; a group of pages per morsel approximates
  // the requested rows-per-morsel. Chunks are reduced in page order, so
  // the output is byte-for-byte the serial scan's.
  const std::size_t pages_per_morsel =
      morsel_rows == 0 ? num_pages
                       : std::max<std::size_t>(1, morsel_rows / kLeafEntries);
  std::vector<std::vector<Triple>> chunks(
      NumMorsels(num_pages, pages_per_morsel));
  ForEachMorsel(
      num_pages, pages_per_morsel, parallel,
      [&](std::size_t m, std::size_t mb, std::size_t me) {
        std::vector<Triple>& kept = chunks[m];
        CompressedKeyIndex::Scratch scratch;
        for (std::size_t page = mb; page < me; ++page) {
          idx.ScanPage(first_page + page, rc.lo, rc.hi, scratch,
                       [&](std::span<const IndexKey> run) {
                         for (const IndexKey& k : run) {
                           const Triple t = PermTriple(rc.perm, k);
                           if (filter) {
                             if (need_so && t.s != t.o) continue;
                             if (need_sp && t.s != t.p) continue;
                             if (need_po && t.p != t.o) continue;
                           }
                           kept.push_back(t);
                         }
                       });
        }
      });

  // Materialize: one gather per output column from the kept triples.
  std::size_t total = 0;
  for (const std::vector<Triple>& c : chunks) total += c.size();
  for (int c = 0; c < out.num_cols(); ++c) {
    const VarId v = pattern.schema[c];
    // Source-field precedence matches the row-at-a-time emitter this
    // replaced: s, then p, then o.
    const int field = v == pattern.var_s ? 0 : v == pattern.var_p ? 1 : 2;
    std::vector<TermId>& dst = out.MutableColumn(c);
    dst.resize(total);
    std::size_t pos = 0;
    for (const std::vector<Triple>& chunk : chunks) {
      for (const Triple& t : chunk) {
        dst[pos++] = field == 0 ? t.s : field == 1 ? t.p : t.o;
      }
    }
  }

  // Rows arrive in rc.perm key order, so the first free key component's
  // column is non-decreasing — the ordered-scan property merge joins use.
  const TermId consts[3] = {pattern.s, pattern.p, pattern.o};
  const VarId vars[3] = {pattern.var_s, pattern.var_p, pattern.var_o};
  for (const int field : kPermFields[static_cast<int>(rc.perm)]) {
    if (consts[field] == kInvalidTermId) {
      out.SetSortedBy(vars[field]);
      break;
    }
  }
  return out;
}

}  // namespace parqo
