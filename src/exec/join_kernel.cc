#include "exec/join_kernel.h"

#include <algorithm>
#include <span>

namespace parqo {
namespace {

// Gathers the matched (probe, build) row pairs into output columns, one
// gather per column, chunks in morsel order. Shared variables exist on
// both sides with equal values; prefer the left source like the
// reference engine (the choice is value-neutral). Shared by the hash and
// merge kernels, which therefore materialize byte-identically. The
// first `morsels` chunks of `s` hold the matches; chunks a heavy join
// grew are released afterwards.
BindingTable MaterializeJoin(const BindingTable& left,
                             const BindingTable& right, bool build_left,
                             JoinScratch& s, std::size_t morsels,
                             BindingTable out) {
  const std::span<MatchChunk> chunks(s.chunks.data(), morsels);
  const std::vector<VarId>& out_schema = out.schema();
  std::size_t total = 0;
  for (const MatchChunk& c : chunks) total += c.probe_rows.size();
  for (int i = 0; i < out.num_cols(); ++i) {
    int cl = left.ColumnOf(out_schema[i]);
    const bool use_left = cl >= 0;
    const std::vector<TermId>& src =
        use_left ? left.Column(cl)
                 : right.Column(right.ColumnOf(out_schema[i]));
    const bool src_is_build = use_left == build_left;
    std::vector<TermId>& dst = out.MutableColumn(i);
    dst.resize(total);
    std::size_t pos = 0;
    for (const MatchChunk& c : chunks) {
      const std::vector<std::uint32_t>& idx =
          src_is_build ? c.build_rows : c.probe_rows;
      for (std::uint32_t r : idx) dst[pos++] = src[r];
    }
  }
  for (MatchChunk& c : chunks) {
    ReleaseIfLarge(c.probe_rows);
    ReleaseIfLarge(c.build_rows);
  }
  // Probe-major emit preserves the probe side's known row order.
  const BindingTable& probe = build_left ? right : left;
  out.SetSortedBy(probe.sorted_by());
  return out;
}

// Cross product, left-row-major: (l0,r0..rN), (l1,r0..rN), ... Only
// arises inside constant-anchored local queries, so it stays serial.
BindingTable CrossProduct(const BindingTable& left, const BindingTable& right,
                          BindingTable out) {
  const std::size_t nl = left.NumRows();
  const std::size_t nr = right.NumRows();
  const std::vector<VarId>& schema = out.schema();
  for (int i = 0; i < out.num_cols(); ++i) {
    std::vector<TermId>& dst = out.MutableColumn(i);
    dst.resize(nl * nr);
    int cl = left.ColumnOf(schema[i]);
    std::size_t pos = 0;
    if (cl >= 0) {
      const std::vector<TermId>& src = left.Column(cl);
      for (std::size_t lr = 0; lr < nl; ++lr) {
        TermId v = src[lr];
        for (std::size_t rr = 0; rr < nr; ++rr) dst[pos++] = v;
      }
    } else {
      const std::vector<TermId>& src = right.Column(right.ColumnOf(schema[i]));
      for (std::size_t lr = 0; lr < nl; ++lr) {
        for (std::size_t rr = 0; rr < nr; ++rr) dst[pos++] = src[rr];
      }
    }
  }
  // Left-row-major: the left side's known order survives (each left row
  // is repeated contiguously).
  out.SetSortedBy(left.sorted_by());
  return out;
}

// How many variables both schemas hold; `*first` is the first of them in
// `a`'s order. Counting instead of building SharedSchema keeps the common
// single-key join free of a per-call key vector.
std::size_t CountShared(const std::vector<VarId>& a,
                        const std::vector<VarId>& b, VarId* first) {
  std::size_t count = 0;
  *first = kInvalidVarId;
  for (VarId v : a) {
    if (std::find(b.begin(), b.end(), v) == b.end()) continue;
    if (count++ == 0) *first = v;
  }
  return count;
}

[[maybe_unused]] bool ColumnIsNonDecreasing(const std::vector<TermId>& col) {
  return std::is_sorted(col.begin(), col.end());
}

}  // namespace

std::vector<VarId> MergeSchemas(const std::vector<VarId>& a,
                                const std::vector<VarId>& b) {
  std::vector<VarId> out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  for (VarId v : b) {
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<VarId> SharedSchema(const std::vector<VarId>& a,
                                const std::vector<VarId>& b) {
  std::vector<VarId> out;
  out.reserve(std::min(a.size(), b.size()));
  for (VarId v : a) {
    if (std::find(b.begin(), b.end(), v) != b.end()) out.push_back(v);
  }
  return out;
}

BindingTable BatchHashJoin(const BindingTable& left, const BindingTable& right,
                           const BatchJoinOptions& opts) {
  VarId key = kInvalidVarId;
  const std::size_t nkeys = CountShared(left.schema(), right.schema(), &key);
  BindingTable out(MergeSchemas(left.schema(), right.schema()));
  if (left.NumRows() == 0 || right.NumRows() == 0) return out;
  if (nkeys == 0) return CrossProduct(left, right, std::move(out));

  // Build on the smaller side (ties keep left, matching the reference
  // row engine so emit order agrees).
  const bool build_left = left.NumRows() <= right.NumRows();
  const BindingTable& build = build_left ? left : right;
  const BindingTable& probe = build_left ? right : left;

  JoinScratch local;
  JoinScratch& s = opts.scratch != nullptr ? *opts.scratch : local;
  const std::size_t probe_rows = probe.NumRows();
  const std::size_t morsels = NumMorsels(probe_rows, opts.morsel_rows);
  if (s.chunks.size() < morsels) s.chunks.resize(morsels);
  auto chunk = [&](std::size_t m) -> MatchChunk& {
    MatchChunk& c = s.chunks[m];
    c.probe_rows.clear();
    c.build_rows.clear();
    return c;
  };

  if (nkeys == 1 && !opts.force_generic_kernel) {
    // Specialized single-key kernel: the key IS the column; matching is
    // a direct TermId compare inside the table.
    SingleKeyJoinTable& table = s.single;
    table.Build(build.Column(build.ColumnOf(key)));
    const std::vector<TermId>& pk = probe.Column(probe.ColumnOf(key));
    ForEachMorsel(probe_rows, opts.morsel_rows, opts.parallel,
                  [&](std::size_t m, std::size_t begin, std::size_t end) {
                    MatchChunk& c = chunk(m);
                    for (std::size_t r = begin; r < end; ++r) {
                      table.ForEachMatch(pk[r], [&](std::uint32_t b) {
                        c.probe_rows.push_back(
                            static_cast<std::uint32_t>(r));
                        c.build_rows.push_back(b);
                      });
                    }
                  });
    table.ReleaseIfLarge();
  } else {
    // Generic kernel: hash the build key columns column-at-a-time, probe
    // by hash, confirm on the actual key columns.
    std::vector<const std::vector<TermId>*> build_key, probe_key;
    build_key.reserve(nkeys);
    probe_key.reserve(nkeys);
    for (VarId v : SharedSchema(left.schema(), right.schema())) {
      build_key.push_back(&build.Column(build.ColumnOf(v)));
      probe_key.push_back(&probe.Column(probe.ColumnOf(v)));
    }
    std::vector<std::uint64_t>& hashes = s.hashes;
    hashes.assign(build.NumRows(), 1469598103934665603ULL);
    for (const std::vector<TermId>* col : build_key) {
      for (std::size_t r = 0; r < hashes.size(); ++r) {
        hashes[r] ^= (*col)[r];
        hashes[r] *= 1099511628211ULL;
      }
    }
    MultiKeyJoinTable& table = s.multi;
    table.Build(hashes);
    ForEachMorsel(probe_rows, opts.morsel_rows, opts.parallel,
                  [&](std::size_t m, std::size_t begin, std::size_t end) {
                    MatchChunk& c = chunk(m);
                    std::vector<TermId>& tuple = c.key;
                    tuple.resize(nkeys);
                    for (std::size_t r = begin; r < end; ++r) {
                      for (std::size_t i = 0; i < nkeys; ++i) {
                        tuple[i] = (*probe_key[i])[r];
                      }
                      std::uint64_t h = JoinKeyHash(tuple.data(), nkeys);
                      table.ForEachHashMatch(h, [&](std::uint32_t b) {
                        for (std::size_t i = 0; i < nkeys; ++i) {
                          if ((*build_key[i])[b] != tuple[i]) return;
                        }
                        c.probe_rows.push_back(
                            static_cast<std::uint32_t>(r));
                        c.build_rows.push_back(b);
                      });
                    }
                  });
    table.ReleaseIfLarge();
    ReleaseIfLarge(hashes);
  }

  return MaterializeJoin(left, right, build_left, s, morsels, std::move(out));
}

VarId MergeJoinKey(const BindingTable& left, const BindingTable& right) {
  if (left.NumRows() == 0 || right.NumRows() == 0) return kInvalidVarId;
  VarId key = kInvalidVarId;
  if (CountShared(left.schema(), right.schema(), &key) != 1) {
    return kInvalidVarId;
  }
  if (left.sorted_by() != key || right.sorted_by() != key) {
    return kInvalidVarId;
  }
  return key;
}

BindingTable BatchMergeJoin(const BindingTable& left,
                            const BindingTable& right,
                            const BatchJoinOptions& opts) {
  VarId key = kInvalidVarId;
  PARQO_CHECK(CountShared(left.schema(), right.schema(), &key) == 1);
  BindingTable out(MergeSchemas(left.schema(), right.schema()));
  if (left.NumRows() == 0 || right.NumRows() == 0) return out;

  // Same side selection as the hash join: build = smaller, ties keep
  // left; output is probe-row-major.
  const bool build_left = left.NumRows() <= right.NumRows();
  const BindingTable& build = build_left ? left : right;
  const BindingTable& probe = build_left ? right : left;
  const std::vector<TermId>& bk = build.Column(build.ColumnOf(key));
  const std::vector<TermId>& pk = probe.Column(probe.ColumnOf(key));
  PARQO_DCHECK(ColumnIsNonDecreasing(bk));
  PARQO_DCHECK(ColumnIsNonDecreasing(pk));

  JoinScratch local;
  JoinScratch& s = opts.scratch != nullptr ? *opts.scratch : local;
  const std::size_t probe_rows = probe.NumRows();
  const std::size_t morsels = NumMorsels(probe_rows, opts.morsel_rows);
  if (s.chunks.size() < morsels) s.chunks.resize(morsels);
  ForEachMorsel(
      probe_rows, opts.morsel_rows, opts.parallel,
      [&](std::size_t m, std::size_t begin, std::size_t end) {
        MatchChunk& c = s.chunks[m];
        c.probe_rows.clear();
        c.build_rows.clear();
        // Anchor this morsel's build cursor by binary search; both
        // cursors then only move forward, so a morsel's matching work is
        // O(run lengths) and independent of other morsels.
        std::size_t b_lo = static_cast<std::size_t>(
            std::lower_bound(bk.begin(), bk.end(), pk[begin]) - bk.begin());
        std::size_t b_hi = b_lo;
        TermId run_key = 0;
        bool have_run = false;
        for (std::size_t r = begin; r < end; ++r) {
          const TermId k = pk[r];
          if (!have_run || k != run_key) {
            b_lo = b_hi;
            while (b_lo < bk.size() && bk[b_lo] < k) ++b_lo;
            b_hi = b_lo;
            while (b_hi < bk.size() && bk[b_hi] == k) ++b_hi;
            run_key = k;
            have_run = true;
          }
          // Matching build rows are a contiguous ascending run — exactly
          // the order the hash-join probe chain yields.
          for (std::size_t b = b_lo; b < b_hi; ++b) {
            c.probe_rows.push_back(static_cast<std::uint32_t>(r));
            c.build_rows.push_back(static_cast<std::uint32_t>(b));
          }
        }
      });

  return MaterializeJoin(left, right, build_left, s, morsels, std::move(out));
}

}  // namespace parqo
