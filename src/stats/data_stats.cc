#include "stats/data_stats.h"

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "storage/dataset_index.h"

namespace parqo {
namespace {

// One pattern's constants and shape. A constant absent from the
// dictionary (kInvalidTermId) cannot match anything.
struct ResolvedStats {
  TermId s = kInvalidTermId;
  TermId p = kInvalidTermId;
  TermId o = kInvalidTermId;
  bool unmatchable = false;
  bool repeated = false;  // a variable occurs in 2+ positions
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
void BruteForcePattern(const JoinGraph& jg, const RdfGraph& graph, int tp,
                       const TriplePattern& pat, const ResolvedStats& r,
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
}

}  // namespace

QueryStatistics ComputeStatisticsFromGraph(const JoinGraph& jg,
                                           const RdfGraph& graph) {
  QueryStatistics stats(jg);
  const Dictionary& dict = graph.dict();
  const DatasetIndex& index = graph.Index();

  for (int tp = 0; tp < jg.num_tps(); ++tp) {
    const TriplePattern& pat = jg.pattern(tp);
    const bool vs = pat.s.IsVar();
    const bool vp = pat.p.IsVar();
    const bool vo = pat.o.IsVar();
    const int nvars = static_cast<int>(vs) + vp + vo;
    // All-constant: over the deduplicated graph |tp| is 0 or 1, and the
    // estimator's floor makes both 1 — the statistics' default.
    if (nvars == 0) continue;
    const ResolvedStats r = ResolvePattern(pat, dict);
    if (r.repeated) {
      BruteForcePattern(jg, graph, tp, pat, r, stats);
      continue;
    }

    // Aggregated-index path: exact |tp| and per-position distinct counts
    // without touching any leaves. Values are identical to the brute
    // scan this replaced — graph triples are deduplicated, so with two
    // positions pinned the free position's bindings are pairwise
    // distinct (distinct == count).
    std::uint64_t count = 0;
    std::uint64_t dpos[3] = {0, 0, 0};
    if (!r.unmatchable) {
      count = index.CountPattern(r.s, r.p, r.o);
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
      } else {
        dpos[vs ? 0 : vp ? 1 : 2] = count;
      }
    }

    stats.SetCardinality(tp, count == 0 ? 1.0 : static_cast<double>(count));
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
  return stats;
}

}  // namespace parqo
