#include "exec/node_store.h"

#include <algorithm>
#include <functional>

#include "common/check.h"
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

TermId Field(const Triple& t, int field) {
  return field == 0 ? t.s : field == 1 ? t.p : t.o;
}

// First key at or after `cur` that is >= v: gallop forward, then binary
// search the last step, so a merge over ascending rows costs O(log gap)
// per advance however many keys it skips.
const TermId* AdvanceTo(const TermId* cur, const TermId* end, TermId v) {
  if (cur == end || *cur >= v) return cur;
  std::size_t step = 1;
  const TermId* lo = cur;
  const TermId* hi = lo + 1;
  while (hi < end && *hi < v) {
    lo = hi;
    step <<= 1;
    hi = end - lo > static_cast<std::ptrdiff_t>(step) ? lo + step : end;
  }
  return std::lower_bound(lo, hi, v);
}

}  // namespace

KeySet::KeySet(std::vector<TermId> sorted) : keys_(std::move(sorted)) {
  PARQO_DCHECK(std::adjacent_find(keys_.begin(), keys_.end(),
                                  std::greater_equal<TermId>()) ==
               keys_.end());
  PARQO_DCHECK(keys_.empty() || keys_[0] != kInvalidTermId);
  std::size_t cap = 16;
  while (cap < keys_.size() * 2) cap <<= 1;
  slots_.assign(cap, kInvalidTermId);
  const std::size_t mask = cap - 1;
  for (TermId k : keys_) {
    std::size_t i = JoinKeyHash(k) & mask;
    while (slots_[i] != kInvalidTermId) i = (i + 1) & mask;
    slots_[i] = k;
  }
}

NodeStore::NodeStore(std::vector<Triple> triples) : index_(triples) {}

BindingTable NodeStore::Scan(const ResolvedPattern& pattern,
                             std::size_t morsel_rows, bool parallel,
                             const ScanFilter& filter) const {
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
  const bool repeated = need_so || need_sp || need_po;
  auto keep = [&](const Triple& t) {
    return !repeated || ((!need_so || t.s == t.o) &&
                         (!need_sp || t.s == t.p) &&
                         (!need_po || t.p == t.o));
  };

  // Rows arrive in key order of the chosen permutation, so the first
  // free key component's column is non-decreasing — the ordered-scan
  // property merge joins use.
  const TermId consts[3] = {pattern.s, pattern.p, pattern.o};
  const VarId vars[3] = {pattern.var_s, pattern.var_p, pattern.var_o};
  VarId sorted_by = kInvalidVarId;
  for (const int field : kPermFields[static_cast<int>(rc.perm)]) {
    if (consts[field] == kInvalidTermId) {
      sorted_by = vars[field];
      break;
    }
  }

  // Pages are the scan morsels; a group of pages per morsel approximates
  // the requested rows-per-morsel. Chunks are reduced in morsel order, so
  // the output is byte-for-byte the serial scan's.
  const std::size_t pages_per_morsel =
      morsel_rows == 0 ? num_pages
                       : std::max<std::size_t>(1, morsel_rows / kLeafEntries);
  std::vector<std::vector<Triple>> chunks;

  const KeySet* keys = filter.keys;
  if (keys != nullptr && keys->size() <= num_pages) {
    // Seek path: one bound seek per key, keys ascending, the key pinned
    // in every position the filter variable occupies. A morsel's seeks
    // share one Scratch. A seek decodes from the restart block before its
    // lower bound to its last match, never more than its pages, so
    // parallel morsels take as many keys as they would take pages; a
    // serial scan is one morsel.
    const bool at[3] = {vars[0] == filter.var, vars[1] == filter.var,
                        vars[2] == filter.var};
    PARQO_DCHECK(at[0] || at[1] || at[2]);
    const std::vector<TermId>& k = keys->keys();
    const std::size_t keys_per_morsel =
        parallel && morsel_rows != 0 ? pages_per_morsel : k.size();
    chunks.resize(NumMorsels(k.size(), keys_per_morsel));
    ForEachMorsel(
        k.size(), keys_per_morsel, parallel,
        [&](std::size_t m, std::size_t kb, std::size_t ke) {
          std::vector<Triple>& kept = chunks[m];
          CompressedKeyIndex::Scratch scratch;
          for (std::size_t i = kb; i < ke; ++i) {
            const PermutationIndex::RangeChoice seek =
                PermutationIndex::ChooseRange(at[0] ? k[i] : consts[0],
                                              at[1] ? k[i] : consts[1],
                                              at[2] ? k[i] : consts[2]);
            const CompressedKeyIndex& sidx = index_.perm(seek.perm);
            const auto [sb, se] = sidx.PageSpan(seek.lo, seek.hi);
            for (std::size_t page = sb; page < se; ++page) {
              sidx.ScanPage(page, seek.lo, seek.hi, scratch,
                            [&](std::span<const IndexKey> run) {
                              for (const IndexKey& key : run) {
                                const Triple t = PermTriple(seek.perm, key);
                                if (keep(t)) kept.push_back(t);
                              }
                            });
            }
          }
        });
    sorted_by = filter.var;
  } else {
    // Decode path: the whole range once, dropping non-keys during decode.
    int key_field = -1;
    if (keys != nullptr) {
      for (int f = 0; f < 3; ++f) {
        if (vars[f] == filter.var) {
          key_field = f;
          break;
        }
      }
      PARQO_DCHECK(key_field >= 0);
    }
    const bool merge = key_field >= 0 && sorted_by == filter.var;
    chunks.resize(NumMorsels(num_pages, pages_per_morsel));
    ForEachMorsel(
        num_pages, pages_per_morsel, parallel,
        [&](std::size_t m, std::size_t mb, std::size_t me) {
          std::vector<Triple>& kept = chunks[m];
          CompressedKeyIndex::Scratch scratch;
          const TermId* cur = keys != nullptr ? keys->keys().data() : nullptr;
          const TermId* kend = cur + (keys != nullptr ? keys->size() : 0);
          for (std::size_t page = mb; page < me; ++page) {
            idx.ScanPage(
                first_page + page, rc.lo, rc.hi, scratch,
                [&](std::span<const IndexKey> run) {
                  for (const IndexKey& key : run) {
                    const Triple t = PermTriple(rc.perm, key);
                    if (!keep(t)) continue;
                    if (key_field >= 0) {
                      const TermId v = Field(t, key_field);
                      if (merge) {
                        // Rows ascend on v: the key cursor only moves
                        // forward.
                        cur = AdvanceTo(cur, kend, v);
                        if (cur == kend || *cur != v) continue;
                      } else if (!keys->Contains(v)) {
                        continue;
                      }
                    }
                    kept.push_back(t);
                  }
                });
          }
        });
  }

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
      for (const Triple& t : chunk) dst[pos++] = Field(t, field);
    }
  }
  if (sorted_by != kInvalidVarId) out.SetSortedBy(sorted_by);
  return out;
}

}  // namespace parqo
