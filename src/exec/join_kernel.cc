#include "exec/join_kernel.h"

#include <algorithm>

namespace parqo {
namespace {

// Gathers the matched (probe, build) row pairs of `s` into the output
// columns, one gather per column. Shared variables exist on both sides
// with equal values; prefer the left source like the reference engine
// (the choice is value-neutral). Shared by the hash and merge kernels,
// which therefore materialize byte-identically. Match arrays a heavy
// join grew are released afterwards.
RowsWritten MaterializeJoin(const RowRange& left, const RowRange& right,
                            bool build_left, JoinScratch& s,
                            const std::vector<VarId>& out_schema,
                            std::vector<TermId>* out) {
  const std::size_t total = s.probe_rows.size();
  for (std::size_t i = 0; i < out_schema.size(); ++i) {
    int cl = left.ColumnOf(out_schema[i]);
    const bool use_left = cl >= 0;
    const TermId* src = use_left
                            ? left.Column(cl)
                            : right.Column(right.ColumnOf(out_schema[i]));
    const std::vector<std::uint32_t>& idx =
        use_left == build_left ? s.build_rows : s.probe_rows;
    std::vector<TermId>& dst = out[i];
    dst.resize(total);
    for (std::size_t pos = 0; pos < total; ++pos) dst[pos] = src[idx[pos]];
  }
  ReleaseIfLarge(s.probe_rows);
  ReleaseIfLarge(s.build_rows);
  // Probe-major emit preserves the probe side's known row order.
  return {total, (build_left ? right : left).sorted_by};
}

// Cross product, left-row-major: (l0,r0..rN), (l1,r0..rN), ... Only
// arises inside constant-anchored local queries.
RowsWritten CrossProduct(const RowRange& left, const RowRange& right,
                         const std::vector<VarId>& out_schema,
                         std::vector<TermId>* out) {
  const std::size_t nl = left.NumRows();
  const std::size_t nr = right.NumRows();
  for (std::size_t i = 0; i < out_schema.size(); ++i) {
    std::vector<TermId>& dst = out[i];
    dst.resize(nl * nr);
    int cl = left.ColumnOf(out_schema[i]);
    std::size_t pos = 0;
    if (cl >= 0) {
      const TermId* src = left.Column(cl);
      for (std::size_t lr = 0; lr < nl; ++lr) {
        TermId v = src[lr];
        for (std::size_t rr = 0; rr < nr; ++rr) dst[pos++] = v;
      }
    } else {
      const TermId* src = right.Column(right.ColumnOf(out_schema[i]));
      for (std::size_t lr = 0; lr < nl; ++lr) {
        for (std::size_t rr = 0; rr < nr; ++rr) dst[pos++] = src[rr];
      }
    }
  }
  // Left-row-major: the left side's known order survives (each left row
  // is repeated contiguously).
  return {nl * nr, left.sorted_by};
}

// No rows: every output column emptied, order unknown.
RowsWritten NoRows(const std::vector<VarId>& out_schema,
                   std::vector<TermId>* out) {
  for (std::size_t i = 0; i < out_schema.size(); ++i) out[i].clear();
  return {};
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

[[maybe_unused]] bool ColumnIsNonDecreasing(const TermId* col,
                                            std::size_t n) {
  return std::is_sorted(col, col + n);
}

// A new table over `left` and `right`'s merged schema, filled by
// `join(out_schema, out_columns)`.
template <typename Join>
BindingTable JoinIntoTable(const BindingTable& left, const BindingTable& right,
                           Join&& join) {
  BindingTable out(MergeSchemas(left.schema(), right.schema()));
  out.SetSortedBy(join(out.schema(), out.MutableColumns()).sorted_by);
  return out;
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

RowsWritten BatchHashJoinInto(const RowRange& left, const RowRange& right,
                              const std::vector<VarId>& out_schema,
                              std::vector<TermId>* out,
                              const BatchJoinOptions& opts) {
  VarId key = kInvalidVarId;
  const std::size_t nkeys = CountShared(*left.schema, *right.schema, &key);
  if (left.NumRows() == 0 || right.NumRows() == 0) {
    return NoRows(out_schema, out);
  }
  if (nkeys == 0) return CrossProduct(left, right, out_schema, out);

  // Build on the smaller side (ties keep left, matching the reference
  // row engine so emit order agrees).
  const bool build_left = left.NumRows() <= right.NumRows();
  const RowRange& build = build_left ? left : right;
  const RowRange& probe = build_left ? right : left;

  JoinScratch local;
  JoinScratch& s = opts.scratch != nullptr ? *opts.scratch : local;
  const std::size_t probe_rows = probe.NumRows();
  s.probe_rows.clear();
  s.build_rows.clear();

  if (nkeys == 1 && !opts.force_generic_kernel) {
    // Specialized single-key kernel: the key IS the column; matching is
    // a direct TermId compare inside the table.
    SingleKeyJoinTable& table = s.single;
    table.Build(build.Column(build.ColumnOf(key)), build.NumRows());
    const TermId* pk = probe.Column(probe.ColumnOf(key));
    for (std::size_t r = 0; r < probe_rows; ++r) {
      table.ForEachMatch(pk[r], [&](std::uint32_t b) {
        s.probe_rows.push_back(static_cast<std::uint32_t>(r));
        s.build_rows.push_back(b);
      });
    }
    table.ReleaseIfLarge();
  } else {
    // Generic kernel: hash the build key columns column-at-a-time, probe
    // by hash, confirm on the actual key columns.
    std::vector<const TermId*>& build_key = s.build_key;
    std::vector<const TermId*>& probe_key = s.probe_key;
    build_key.clear();
    probe_key.clear();
    for (VarId v : *left.schema) {
      if (right.ColumnOf(v) < 0) continue;
      build_key.push_back(build.Column(build.ColumnOf(v)));
      probe_key.push_back(probe.Column(probe.ColumnOf(v)));
    }
    std::vector<std::uint64_t>& hashes = s.hashes;
    hashes.assign(build.NumRows(), 1469598103934665603ULL);
    for (const TermId* col : build_key) {
      for (std::size_t r = 0; r < hashes.size(); ++r) {
        hashes[r] ^= col[r];
        hashes[r] *= 1099511628211ULL;
      }
    }
    MultiKeyJoinTable& table = s.multi;
    table.Build(hashes);
    std::vector<TermId>& tuple = s.probe_tuple;
    tuple.resize(nkeys);
    for (std::size_t r = 0; r < probe_rows; ++r) {
      for (std::size_t i = 0; i < nkeys; ++i) tuple[i] = probe_key[i][r];
      std::uint64_t h = JoinKeyHash(tuple.data(), nkeys);
      table.ForEachHashMatch(h, [&](std::uint32_t b) {
        for (std::size_t i = 0; i < nkeys; ++i) {
          if (build_key[i][b] != tuple[i]) return;
        }
        s.probe_rows.push_back(static_cast<std::uint32_t>(r));
        s.build_rows.push_back(b);
      });
    }
    table.ReleaseIfLarge();
    ReleaseIfLarge(hashes);
  }

  return MaterializeJoin(left, right, build_left, s, out_schema, out);
}

BindingTable BatchHashJoin(const BindingTable& left, const BindingTable& right,
                           const BatchJoinOptions& opts) {
  return JoinIntoTable(left, right, [&](const std::vector<VarId>& schema,
                                        std::vector<TermId>* out) {
    return BatchHashJoinInto(left, right, schema, out, opts);
  });
}

VarId MergeJoinKey(const RowRange& left, const RowRange& right) {
  if (left.NumRows() == 0 || right.NumRows() == 0) return kInvalidVarId;
  VarId key = kInvalidVarId;
  if (CountShared(*left.schema, *right.schema, &key) != 1) {
    return kInvalidVarId;
  }
  if (left.sorted_by != key || right.sorted_by != key) {
    return kInvalidVarId;
  }
  return key;
}

RowsWritten BatchMergeJoinInto(const RowRange& left, const RowRange& right,
                               const std::vector<VarId>& out_schema,
                               std::vector<TermId>* out,
                               const BatchJoinOptions& opts) {
  VarId key = kInvalidVarId;
  PARQO_CHECK(CountShared(*left.schema, *right.schema, &key) == 1);
  if (left.NumRows() == 0 || right.NumRows() == 0) {
    return NoRows(out_schema, out);
  }

  // Same side selection as the hash join: build = smaller, ties keep
  // left; output is probe-row-major.
  const bool build_left = left.NumRows() <= right.NumRows();
  const RowRange& build = build_left ? left : right;
  const RowRange& probe = build_left ? right : left;
  const TermId* bk = build.Column(build.ColumnOf(key));
  const TermId* pk = probe.Column(probe.ColumnOf(key));
  const std::size_t build_rows = build.NumRows();
  PARQO_DCHECK(ColumnIsNonDecreasing(bk, build_rows));
  PARQO_DCHECK(ColumnIsNonDecreasing(pk, probe.NumRows()));

  JoinScratch local;
  JoinScratch& s = opts.scratch != nullptr ? *opts.scratch : local;
  s.probe_rows.clear();
  s.build_rows.clear();
  // Both cursors only move forward, so the matching work is linear in
  // the two inputs.
  std::size_t b_lo = 0;
  std::size_t b_hi = 0;
  TermId run_key = 0;
  bool have_run = false;
  for (std::size_t r = 0; r < probe.NumRows(); ++r) {
    const TermId k = pk[r];
    if (!have_run || k != run_key) {
      b_lo = b_hi;
      while (b_lo < build_rows && bk[b_lo] < k) ++b_lo;
      b_hi = b_lo;
      while (b_hi < build_rows && bk[b_hi] == k) ++b_hi;
      run_key = k;
      have_run = true;
    }
    // Matching build rows are a contiguous ascending run — exactly the
    // order the hash-join probe chain yields.
    for (std::size_t b = b_lo; b < b_hi; ++b) {
      s.probe_rows.push_back(static_cast<std::uint32_t>(r));
      s.build_rows.push_back(static_cast<std::uint32_t>(b));
    }
  }

  return MaterializeJoin(left, right, build_left, s, out_schema, out);
}

BindingTable BatchMergeJoin(const BindingTable& left,
                            const BindingTable& right,
                            const BatchJoinOptions& opts) {
  return JoinIntoTable(left, right, [&](const std::vector<VarId>& schema,
                                        std::vector<TermId>* out) {
    return BatchMergeJoinInto(left, right, schema, out, opts);
  });
}

}  // namespace parqo
