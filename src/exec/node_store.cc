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

// The key component of `perm` that holds triple field `field`.
int ComponentOf(Perm perm, int field) {
  const int* fields = kPermFields[static_cast<int>(perm)];
  return fields[0] == field ? 0 : fields[1] == field ? 1 : 2;
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

// How one scan turns a decoded key of its permutation into a row: the
// key component behind each output column, the component pairs a
// repeated variable (?x p ?x) needs equal, and the component a key
// filter tests (-1: none).
struct RowShape {
  int ncols = 0;
  int col[3] = {0, 0, 0};
  int neq = 0;
  int eq[3][2] = {};
  int filter = -1;
};

RowShape ShapeFor(const ResolvedPattern& pattern, Perm perm,
                  VarId filter_var) {
  RowShape shape;
  const VarId vars[3] = {pattern.var_s, pattern.var_p, pattern.var_o};
  for (VarId v : pattern.schema) {
    // A repeated variable reads its first field: s, then p, then o.
    const int field = v == vars[0] ? 0 : v == vars[1] ? 1 : 2;
    shape.col[shape.ncols++] = ComponentOf(perm, field);
  }
  for (int a = 0; a < 3; ++a) {
    for (int b = a + 1; b < 3; ++b) {
      if (vars[a] != kInvalidVarId && vars[a] == vars[b]) {
        shape.eq[shape.neq][0] = ComponentOf(perm, a);
        shape.eq[shape.neq][1] = ComponentOf(perm, b);
        ++shape.neq;
      }
    }
  }
  if (filter_var != kInvalidVarId) {
    const int field = filter_var == vars[0]   ? 0
                      : filter_var == vars[1] ? 1
                      : filter_var == vars[2] ? 2
                                              : -1;
    PARQO_DCHECK(field >= 0);
    shape.filter = ComponentOf(perm, field);
  }
  return shape;
}

// Writes the row of every decoded key that passes the repeated-variable
// equalities and the key filter into `cols`, from row 0. The columns are
// sized up front and doubled when full, so a row costs one capacity check
// and a plain store per column; Finish() trims them to the rows written.
// With `merge`, keys arrive ascending on the filter component and the
// filter's key cursor only moves forward; otherwise it probes the set.
class RowWriter {
 public:
  RowWriter(const RowShape& shape, std::vector<TermId>* const* cols,
            std::size_t rows, const KeySet* keys, bool merge)
      : shape_(shape),
        cols_{cols[0], cols[1], cols[2]},
        cap_(rows),
        keys_(keys),
        merge_(merge),
        cur_(keys != nullptr ? keys->keys().data() : nullptr),
        end_(cur_ + (keys != nullptr ? keys->size() : 0)) {
    Resize(cap_);
  }

  void operator()(const IndexKey& k) {
    for (int e = 0; e < shape_.neq; ++e) {
      if (KeyAt(k, shape_.eq[e][0]) != KeyAt(k, shape_.eq[e][1])) return;
    }
    if (keys_ != nullptr) {
      const TermId v = KeyAt(k, shape_.filter);
      if (merge_) {
        cur_ = AdvanceTo(cur_, end_, v);
        if (cur_ == end_ || *cur_ != v) return;
      } else if (!keys_->Contains(v)) {
        return;
      }
    }
    if (n_ == cap_) {
      cap_ = std::max(2 * cap_, kLeafEntries);
      Resize(cap_);
    }
    for (int c = 0; c < shape_.ncols; ++c) {
      base_[c][n_] = KeyAt(k, shape_.col[c]);
    }
    ++n_;
  }

  void Finish() { Resize(n_); }

 private:
  void Resize(std::size_t rows) {
    for (int c = 0; c < shape_.ncols; ++c) {
      cols_[c]->resize(rows);
      base_[c] = cols_[c]->data();
    }
  }

  const RowShape& shape_;
  std::vector<TermId>* cols_[3];
  TermId* base_[3] = {nullptr, nullptr, nullptr};
  std::size_t n_ = 0;
  std::size_t cap_;
  const KeySet* keys_;
  bool merge_;
  const TermId* cur_;
  const TermId* end_;
};

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
                             const ScanFilter& filter,
                             ScanScratch* scratch) const {
  BindingTable out(pattern.schema);
  // A pattern with no variable binds no column, so it has no rows.
  if (pattern.unmatchable || pattern.schema.empty()) return out;

  const PermutationIndex::RangeChoice rc =
      PermutationIndex::ChooseRange(pattern.s, pattern.p, pattern.o);
  const CompressedKeyIndex& idx = index_.perm(rc.perm);
  const auto [first_page, end_page] = idx.PageSpan(rc.lo, rc.hi);
  const std::size_t num_pages = end_page - first_page;
  if (num_pages == 0) return out;

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

  // run(work, per_morsel, rows, decode) fills the output from `decode(b,
  // e, cols, rows)`, which writes the rows of work items [b, e) — pages of
  // the range, or seek keys — to cols, sized first for `rows` rows. A
  // serial scan decodes everything straight into the output columns.
  // Parallel morsels decode into their own chunks, which are concatenated
  // in morsel order, so the output is byte-for-byte the serial scan's.
  const int ncols = out.num_cols();
  auto run = [&](std::size_t work, std::size_t per_morsel, std::size_t rows,
                 auto&& decode) {
    if (work == 0) return;
    const std::size_t morsels = NumMorsels(work, per_morsel);
    if (!parallel || morsels <= 1) {
      std::vector<TermId>* cols[3] = {nullptr, nullptr, nullptr};
      for (int c = 0; c < ncols; ++c) cols[c] = &out.MutableColumn(c);
      decode(std::size_t{0}, work, cols, rows);
      return;
    }
    ScanScratch local;
    std::vector<std::array<std::vector<TermId>, 3>>& chunks =
        (scratch != nullptr ? *scratch : local).chunks;
    if (chunks.size() < morsels) chunks.resize(morsels);
    ForEachMorsel(work, per_morsel, true,
                  [&](std::size_t m, std::size_t b, std::size_t e) {
                    std::vector<TermId>* cols[3];
                    for (int c = 0; c < 3; ++c) {
                      chunks[m][c].clear();
                      cols[c] = &chunks[m][c];
                    }
                    decode(b, e, cols, std::min(rows, kLeafEntries));
                  });
    std::size_t total = 0;
    for (std::size_t m = 0; m < morsels; ++m) total += chunks[m][0].size();
    for (int c = 0; c < ncols; ++c) {
      std::vector<TermId>& dst = out.MutableColumn(c);
      dst.reserve(total);
      for (std::size_t m = 0; m < morsels; ++m) {
        dst.insert(dst.end(), chunks[m][c].begin(), chunks[m][c].end());
        ReleaseIfLarge(chunks[m][c]);
      }
    }
  };

  // Rows in the range's pages bound the output. An unfiltered scan with
  // no repeated variable keeps all but the boundary pages' strays, so its
  // columns are sized once; any other starts at a page's worth and grows.
  std::size_t bound = 0;
  for (std::size_t page = first_page; page < end_page; ++page) {
    bound += idx.page_entries(page);
  }
  const std::size_t some_rows = std::min(bound, kLeafEntries);
  // Pages are the scan morsels; a group of pages per morsel approximates
  // the requested rows-per-morsel.
  const std::size_t pages_per_morsel =
      morsel_rows == 0 ? num_pages
                       : std::max<std::size_t>(1, morsel_rows / kLeafEntries);
  const KeySet* keys = filter.keys;
  if (keys != nullptr && keys->size() <= num_pages) {
    // Seek path: one bound seek per key, keys ascending, the key pinned
    // in every position the filter variable occupies. Every seek pins the
    // same positions, so every seek reads the same permutation. A seek
    // decodes from the restart block before its lower bound to its last
    // match, never more than its pages, so parallel morsels take as many
    // keys as they would take pages; a serial scan is one morsel.
    const bool at[3] = {vars[0] == filter.var, vars[1] == filter.var,
                        vars[2] == filter.var};
    PARQO_DCHECK(at[0] || at[1] || at[2]);
    auto seek = [&](TermId key) {
      return PermutationIndex::ChooseRange(at[0] ? key : consts[0],
                                           at[1] ? key : consts[1],
                                           at[2] ? key : consts[2]);
    };
    const Perm seek_perm = seek(kMaxTermId).perm;
    const CompressedKeyIndex& sidx = index_.perm(seek_perm);
    const RowShape shape = ShapeFor(pattern, seek_perm, kInvalidVarId);
    const std::vector<TermId>& k = keys->keys();
    run(k.size(), parallel && morsel_rows != 0 ? pages_per_morsel : k.size(),
        some_rows,
        [&](std::size_t kb, std::size_t ke, std::vector<TermId>* const* cols,
            std::size_t rows) {
          RowWriter writer(shape, cols, rows, nullptr, false);
          for (std::size_t i = kb; i < ke; ++i) {
            const PermutationIndex::RangeChoice r = seek(k[i]);
            PARQO_DCHECK(r.perm == seek_perm);
            sidx.ScanRange(r.lo, r.hi, writer);
          }
          writer.Finish();
        });
    sorted_by = filter.var;
  } else {
    // Decode path: the whole range once, dropping non-keys during decode.
    const RowShape shape = ShapeFor(
        pattern, rc.perm, keys != nullptr ? filter.var : kInvalidVarId);
    const bool merge = keys != nullptr && sorted_by == filter.var;
    run(num_pages, pages_per_morsel,
        keys == nullptr && shape.neq == 0 ? bound : some_rows,
        [&](std::size_t mb, std::size_t me, std::vector<TermId>* const* cols,
            std::size_t rows) {
          RowWriter writer(shape, cols, rows, keys, merge);
          for (std::size_t page = mb; page < me; ++page) {
            idx.ScanPage(first_page + page, rc.lo, rc.hi, writer);
          }
          writer.Finish();
        });
  }
  if (sorted_by != kInvalidVarId) out.SetSortedBy(sorted_by);
  return out;
}

}  // namespace parqo
