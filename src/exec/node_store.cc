#include "exec/node_store.h"

#include <algorithm>
#include <functional>

#include "common/check.h"

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

// First index in [i, end) at which pred fails, for a pred that holds on
// a prefix of the range: gallop forward, then binary search the last
// step, so skipping a run of n indexes costs O(log n) tests.
template <typename Pred>
std::size_t GallopPast(std::size_t i, std::size_t end, Pred&& pred) {
  if (i == end || !pred(i)) return i;
  std::size_t lo = i;  // pred(lo) holds
  std::size_t step = 1;
  std::size_t hi = std::min(end, lo + step);
  while (hi < end && pred(hi)) {
    lo = hi;
    step <<= 1;
    hi = std::min(end, lo + step);
  }
  // pred(lo) holds; pred fails at hi, or hi == end.
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (pred(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

void SetKeyAt(IndexKey& k, int i, TermId v) {
  (i == 0 ? k.k1 : i == 1 ? k.k2 : k.k3) = v;
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
// equalities and the key filter's probe into the output columns `out`,
// from row 0. The
// columns are sized up front and doubled when full, so a row costs one
// capacity check and a plain store per column; Finish() trims them to the
// rows written.
class RowWriter {
 public:
  RowWriter(const RowShape& shape, std::vector<TermId>* out,
            std::size_t rows, const KeySet* keys)
      : shape_(shape), out_(out), cap_(rows), keys_(keys) {
    Resize(cap_);
  }

  void operator()(const IndexKey& k) {
    for (int e = 0; e < shape_.neq; ++e) {
      if (KeyAt(k, shape_.eq[e][0]) != KeyAt(k, shape_.eq[e][1])) return;
    }
    if (keys_ != nullptr && !keys_->Contains(KeyAt(k, shape_.filter))) {
      return;
    }
    if (n_ == cap_) {
      cap_ = std::max(2 * cap_, kBlockEntries);
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
      out_[c].resize(rows);
      base_[c] = out_[c].data();
    }
  }

  const RowShape& shape_;
  std::vector<TermId>* out_;
  TermId* base_[3] = {nullptr, nullptr, nullptr};
  std::size_t n_ = 0;
  std::size_t cap_;
  const KeySet* keys_;
};

}  // namespace

KeySet::KeySet(std::vector<TermId> sorted) : keys_(std::move(sorted)) {
  Hash();
}

void KeySet::Assign(std::span<const TermId> sorted) {
  keys_.assign(sorted.begin(), sorted.end());
  Hash();
}

void KeySet::Hash() {
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
                             const ScanFilter& filter,
                             std::uint64_t* decoded) const {
  BindingTable out(pattern.schema);
  const RowsWritten w =
      ScanInto(pattern, out.MutableColumns(), filter, decoded);
  if (w.sorted_by != kInvalidVarId) out.SetSortedBy(w.sorted_by);
  return out;
}

RowsWritten NodeStore::ScanInto(const ResolvedPattern& pattern,
                                std::vector<TermId>* out,
                                const ScanFilter& filter,
                                std::uint64_t* decoded) const {
  const int ncols = static_cast<int>(pattern.schema.size());
  for (int c = 0; c < ncols; ++c) out[c].clear();
  // A pattern with no variable binds no column, so it has no rows.
  if (pattern.unmatchable || ncols == 0) return {};

  const PermutationIndex::RangeChoice rc =
      PermutationIndex::ChooseRange(pattern.s, pattern.p, pattern.o);
  const CompressedKeyIndex& idx = index_.perm(rc.perm);
  const auto [first_page, end_page] = idx.PageSpan(rc.lo, rc.hi);
  if (first_page == end_page) return {};

  // Rows arrive in key order of the chosen permutation, so the first
  // free key component's column is non-decreasing — the ordered-scan
  // property merge joins use.
  const int* fields = kPermFields[static_cast<int>(rc.perm)];
  const TermId consts[3] = {pattern.s, pattern.p, pattern.o};
  const VarId vars[3] = {pattern.var_s, pattern.var_p, pattern.var_o};
  int first_free = 0;
  while (consts[fields[first_free]] != kInvalidTermId) ++first_free;
  PARQO_DCHECK(first_free < 3);
  VarId sorted_by = vars[fields[first_free]];

  // The entries of the restart blocks the range spans bound both what a
  // decode of the range reads and the rows it returns. An unfiltered scan
  // with no repeated variable keeps nearly all of them, so its columns
  // are sized once to that bound; any other starts at a block's worth and
  // doubles.
  const std::size_t span = idx.BlockBound(first_page, end_page, rc.lo, rc.hi);
  const std::size_t some_rows = std::min(span, kBlockEntries);
  const KeySet* keys = filter.keys;
  // A seek of one key decodes about half a restart block below its lower
  // bound, never more than the range, then its rows; a decode of the
  // range reads every entry the range spans, its rows among them. Keys on
  // the range's sort component seek in the range's own permutation, where
  // a run of seeks reads a subset of the decode's blocks, each once: they
  // always seek. Other keys seek when their walk-ins cost no more than the
  // range; past that both paths read about the whole range, and the
  // decode costs less per key (BM_FilteredScan, EXPERIMENTS.md).
  const bool seek =
      keys != nullptr &&
      (sorted_by == filter.var ||
       keys->size() * std::min(span, kBlockEntries / 2) <= span);
  std::uint64_t entries = 0;
  if (seek) {
    // Each key's range pins the key in every position the filter variable
    // occupies that the permutation's prefix can hold. Keys on the sort
    // component pin it, and the components after it that hold the same
    // variable, in the range's permutation; other keys take the
    // permutation ChooseRange picks with the key as a constant. Either
    // way every key's range has the same permutation and prefix layout,
    // so ascending keys give ascending ranges, rows come out sorted by
    // the filter variable, and the row equalities test the rest.
    PermutationIndex::RangeChoice base = rc;
    int pins[3];
    int npins = 0;
    if (sorted_by == filter.var) {
      for (int c = first_free; c < 3 && vars[fields[c]] == filter.var; ++c) {
        pins[npins++] = c;
      }
    } else {
      const bool at[3] = {vars[0] == filter.var, vars[1] == filter.var,
                          vars[2] == filter.var};
      PARQO_DCHECK(at[0] || at[1] || at[2]);
      base = PermutationIndex::ChooseRange(at[0] ? kMaxTermId : consts[0],
                                           at[1] ? kMaxTermId : consts[1],
                                           at[2] ? kMaxTermId : consts[2]);
      for (int f = 0; f < 3; ++f) {
        if (at[f]) pins[npins++] = ComponentOf(base.perm, f);
      }
    }
    auto range = [&](TermId key) {
      PermutationIndex::RangeChoice r = base;
      for (int j = 0; j < npins; ++j) {
        SetKeyAt(r.lo, pins[j], key);
        SetKeyAt(r.hi, pins[j], key);
      }
      return r;
    };
    // One cursor runs through every key's range, so it reads each block
    // once.
    const std::vector<TermId>& k = keys->keys();
    if (!k.empty()) {
      const RowShape shape = ShapeFor(pattern, base.perm, kInvalidVarId);
      RowWriter writer(shape, out, some_rows, nullptr);
      CompressedKeyIndex::Seeker seeker(index_.perm(base.perm));
      for (std::size_t i = 0; i < k.size() && !seeker.done();) {
        const PermutationIndex::RangeChoice r = range(k[i]);
        seeker.Scan(r.lo, r.hi, writer);
        // Keys whose range ends below the cursor have no rows left.
        i = GallopPast(i + 1, k.size(), [&](std::size_t j) {
          return !seeker.done() && range(k[j]).hi < seeker.key();
        });
      }
      writer.Finish();
      entries = seeker.decoded();
    }
    sorted_by = filter.var;
  } else {
    // Decode path: the whole range once, dropping non-keys during decode
    // by a KeySet::Contains probe.
    const RowShape shape = ShapeFor(
        pattern, rc.perm, keys != nullptr ? filter.var : kInvalidVarId);
    RowWriter writer(shape, out,
                     keys == nullptr && shape.neq == 0 ? span : some_rows,
                     keys);
    for (std::size_t page = first_page; page < end_page; ++page) {
      entries += idx.ScanPage(page, rc.lo, rc.hi, writer);
    }
    writer.Finish();
  }
  if (decoded != nullptr) *decoded += entries;
  return {out[0].size(), sorted_by};
}

}  // namespace parqo
