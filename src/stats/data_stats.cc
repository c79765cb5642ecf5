#include "stats/data_stats.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/dataset_index.h"

namespace parqo {
namespace {

// One pattern's constants and shape, resolved once and shared between the
// per-pattern aggregates and the pairwise join measurement. A constant
// absent from the dictionary (kInvalidTermId) cannot match anything.
struct ResolvedStats {
  TermId s = kInvalidTermId;
  TermId p = kInvalidTermId;
  TermId o = kInvalidTermId;
  bool unmatchable = false;
  bool repeated = false;    // a variable occurs in 2+ positions
  std::uint64_t count = 0;  // exact |tp|; 0 when unmatchable
};

ResolvedStats ResolvePattern(const TriplePattern& pat,
                             const Dictionary& dict) {
  ResolvedStats r;
  if (!pat.s.IsVar()) {
    r.s = dict.Lookup(pat.s.term);
    if (r.s == kInvalidTermId) r.unmatchable = true;
  }
  if (!pat.p.IsVar()) {
    r.p = dict.Lookup(pat.p.term);
    if (r.p == kInvalidTermId) r.unmatchable = true;
  }
  if (!pat.o.IsVar()) {
    r.o = dict.Lookup(pat.o.term);
    if (r.o == kInvalidTermId) r.unmatchable = true;
  }
  r.repeated =
      (pat.s.IsVar() && pat.o.IsVar() && pat.s.var == pat.o.var) ||
      (pat.s.IsVar() && pat.p.IsVar() && pat.s.var == pat.p.var) ||
      (pat.p.IsVar() && pat.o.IsVar() && pat.p.var == pat.o.var);
  return r;
}

// Brute-force scan for repeated-variable patterns (?x p ?x): the
// aggregated indexes cannot express the equality constraint, and such
// patterns are rare enough that one pass is fine.
std::uint64_t BruteForcePattern(const JoinGraph& jg, const RdfGraph& graph,
                                int tp, const TriplePattern& pat,
                                const ResolvedStats& r,
                                QueryStatistics& stats) {
  std::size_t count = 0;
  const std::vector<VarId>& vars = jg.VarsOf(tp);
  std::vector<std::unordered_set<TermId>> distinct(vars.size());

  if (!r.unmatchable) {
    for (const Triple& t : graph.triples()) {
      if (!pat.s.IsVar() && t.s != r.s) continue;
      if (!pat.p.IsVar() && t.p != r.p) continue;
      if (!pat.o.IsVar() && t.o != r.o) continue;
      if (pat.s.IsVar() && pat.o.IsVar() && pat.s.var == pat.o.var &&
          t.s != t.o) {
        continue;
      }
      if (pat.s.IsVar() && pat.p.IsVar() && pat.s.var == pat.p.var &&
          t.s != t.p) {
        continue;
      }
      if (pat.p.IsVar() && pat.o.IsVar() && pat.p.var == pat.o.var &&
          t.p != t.o) {
        continue;
      }
      ++count;
      for (std::size_t i = 0; i < vars.size(); ++i) {
        const std::string& name = jg.var_name(vars[i]);
        if (pat.s.IsVar() && pat.s.var == name) distinct[i].insert(t.s);
        if (pat.p.IsVar() && pat.p.var == name) distinct[i].insert(t.p);
        if (pat.o.IsVar() && pat.o.var == name) distinct[i].insert(t.o);
      }
    }
  }

  stats.SetCardinality(tp, count == 0 ? 1.0 : static_cast<double>(count));
  for (std::size_t i = 0; i < vars.size(); ++i) {
    double b = distinct[i].empty() ? 1.0
                                   : static_cast<double>(distinct[i].size());
    stats.SetBindings(tp, vars[i], b);
  }
  return count;
}

TermId FieldOf(const Triple& t, int field) {
  return field == 0 ? t.s : field == 1 ? t.p : t.o;
}

// Packs the (at most two) shared-variable bindings of a triple into one
// 64-bit key. Both sides of a pair use the same shared-variable order, so
// packed keys compare exactly.
std::uint64_t PackKey(const std::vector<int>& fields, const Triple& t) {
  std::uint64_t k = FieldOf(t, fields[0]);
  if (fields.size() == 2) k = (k << 32) | FieldOf(t, fields[1]);
  return k;
}

// Exact |tp_i JOIN tp_j| on the shared variables: hash-count the smaller
// side's shared-variable bindings from an index range scan, then stream
// the larger side and sum the matches. fields_* give each side's triple
// position (0=s, 1=p, 2=o) per shared variable, in a common order.
std::uint64_t ExactPairJoin(const PermutationIndex& index,
                            const ResolvedStats& ri,
                            const std::vector<int>& fields_i,
                            const ResolvedStats& rj,
                            const std::vector<int>& fields_j) {
  const bool build_i = ri.count <= rj.count;
  const ResolvedStats& rb = build_i ? ri : rj;
  const ResolvedStats& rp = build_i ? rj : ri;
  const std::vector<int>& fb = build_i ? fields_i : fields_j;
  const std::vector<int>& fp = build_i ? fields_j : fields_i;

  CompressedKeyIndex::Scratch scratch;
  std::uint64_t total = 0;
  if (fb.size() <= 2) {
    std::unordered_map<std::uint64_t, std::uint64_t> counts;
    counts.reserve(static_cast<std::size_t>(rb.count));
    index.ForEachMatch(rb.s, rb.p, rb.o, scratch,
                       [&](const Triple& t) { ++counts[PackKey(fb, t)]; });
    index.ForEachMatch(rp.s, rp.p, rp.o, scratch, [&](const Triple& t) {
      auto it = counts.find(PackKey(fp, t));
      if (it != counts.end()) total += it->second;
    });
  } else {
    // Three shared variables (both patterns all-variable): too wide for a
    // packed key, rare enough for an ordered map.
    auto key3 = [](const std::vector<int>& fields, const Triple& t) {
      return std::array<TermId, 3>{FieldOf(t, fields[0]),
                                   FieldOf(t, fields[1]),
                                   FieldOf(t, fields[2])};
    };
    std::map<std::array<TermId, 3>, std::uint64_t> counts;
    index.ForEachMatch(rb.s, rb.p, rb.o, scratch,
                       [&](const Triple& t) { ++counts[key3(fb, t)]; });
    index.ForEachMatch(rp.s, rp.p, rp.o, scratch, [&](const Triple& t) {
      auto it = counts.find(key3(fp, t));
      if (it != counts.end()) total += it->second;
    });
  }
  return total;
}

void ComputePairwiseJoins(const JoinGraph& jg, const DatasetIndex& index,
                          const std::vector<ResolvedStats>& resolved,
                          const DataStatsOptions& opts,
                          QueryStatistics& stats) {
  for (int i = 0; i < jg.num_tps(); ++i) {
    for (int j = i + 1; j < jg.num_tps(); ++j) {
      const ResolvedStats& ri = resolved[i];
      const ResolvedStats& rj = resolved[j];
      // Repeated-variable patterns are left unknown (estimator falls
      // back); unmatchable sides make the join exactly empty.
      if (ri.repeated || rj.repeated) continue;
      std::vector<VarId> shared;
      const std::vector<VarId>& vars_j = jg.VarsOf(j);
      for (VarId v : jg.VarsOf(i)) {
        if (std::find(vars_j.begin(), vars_j.end(), v) != vars_j.end()) {
          shared.push_back(v);
        }
      }
      if (shared.empty()) continue;
      if (ri.unmatchable || rj.unmatchable) {
        stats.SetJoinCardinality(i, j, 0.0);
        continue;
      }
      if (std::min(ri.count, rj.count) > opts.pairwise_cap) continue;

      auto fields_of = [&](int tp) {
        const TriplePattern& pat = jg.pattern(tp);
        std::vector<int> fields;
        for (VarId v : shared) {
          const std::string& name = jg.var_name(v);
          if (pat.s.IsVar() && pat.s.var == name) {
            fields.push_back(0);
          } else if (pat.p.IsVar() && pat.p.var == name) {
            fields.push_back(1);
          } else {
            fields.push_back(2);
          }
        }
        return fields;
      };
      stats.SetJoinCardinality(
          i, j,
          static_cast<double>(
              ExactPairJoin(index.perms(), ri, fields_of(i), rj,
                            fields_of(j))));
    }
  }
}

}  // namespace

QueryStatistics ComputeStatisticsFromGraph(const JoinGraph& jg,
                                           const RdfGraph& graph,
                                           const DataStatsOptions& opts) {
  QueryStatistics stats(jg);
  const Dictionary& dict = graph.dict();
  const DatasetIndex& index = graph.Index();
  std::vector<ResolvedStats> resolved(jg.num_tps());

  for (int tp = 0; tp < jg.num_tps(); ++tp) {
    const TriplePattern& pat = jg.pattern(tp);
    ResolvedStats& r = resolved[tp];
    r = ResolvePattern(pat, dict);
    if (r.repeated) {
      r.count = BruteForcePattern(jg, graph, tp, pat, r, stats);
      continue;
    }

    // Aggregated-index path: exact |tp| and per-position distinct counts
    // without touching any leaves. Values are identical to the brute
    // scan this replaced — graph triples are deduplicated, so with two
    // positions pinned the free position's bindings are pairwise
    // distinct (distinct == count).
    std::uint64_t dpos[3] = {0, 0, 0};
    if (!r.unmatchable) {
      r.count = index.CountPattern(r.s, r.p, r.o);
      const bool vs = pat.s.IsVar();
      const bool vp = pat.p.IsVar();
      const bool vo = pat.o.IsVar();
      const int nvars = static_cast<int>(vs) + vp + vo;
      if (nvars == 3) {
        dpos[0] = index.distinct_s();
        dpos[1] = index.distinct_p();
        dpos[2] = index.distinct_o();
      } else if (nvars == 2) {
        if (!vs) {
          DatasetIndex::UnaryStats u = index.StatsForS(r.s);
          dpos[1] = u.distinct_a;
          dpos[2] = u.distinct_b;
        } else if (!vp) {
          DatasetIndex::UnaryStats u = index.StatsForP(r.p);
          dpos[0] = u.distinct_a;
          dpos[2] = u.distinct_b;
        } else {
          DatasetIndex::UnaryStats u = index.StatsForO(r.o);
          dpos[0] = u.distinct_a;
          dpos[1] = u.distinct_b;
        }
      } else if (nvars == 1) {
        dpos[vs ? 0 : vp ? 1 : 2] = r.count;
      }
    }

    stats.SetCardinality(
        tp, r.count == 0 ? 1.0 : static_cast<double>(r.count));
    for (VarId v : jg.VarsOf(tp)) {
      const std::string& name = jg.var_name(v);
      std::uint64_t d = 0;
      if (pat.s.IsVar() && pat.s.var == name) {
        d = dpos[0];
      } else if (pat.p.IsVar() && pat.p.var == name) {
        d = dpos[1];
      } else if (pat.o.IsVar() && pat.o.var == name) {
        d = dpos[2];
      }
      stats.SetBindings(tp, v, d == 0 ? 1.0 : static_cast<double>(d));
    }
  }

  if (opts.pairwise_joins) {
    ComputePairwiseJoins(jg, index, resolved, opts, stats);
  }
  return stats;
}

}  // namespace parqo
