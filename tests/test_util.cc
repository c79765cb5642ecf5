#include "tests/test_util.h"

#include <functional>

#include "common/status.h"
#include "query/match.h"

namespace parqo::testing {

TriplePattern Tp(const std::string& s, const std::string& p,
                 const std::string& o) {
  auto term = [](const std::string& t) {
    if (!t.empty() && t[0] == '?') return PatternTerm::Var(t.substr(1));
    return PatternTerm::Const(Term::Iri(t));
  };
  TriplePattern tp;
  tp.s = term(s);
  tp.p = term(p);
  tp.o = term(o);
  return tp;
}

std::vector<TriplePattern> Figure1Query() {
  return {
      Tp("?b", "p1", "?a"),  // tp1
      Tp("?c", "p2", "?a"),  // tp2
      Tp("?a", "p3", "?e"),  // tp3
      Tp("?e", "p4", "?g"),  // tp4
      Tp("?b", "p5", "?f"),  // tp5
      Tp("?c", "p6", "?d"),  // tp6
      Tp("?a", "p7", "?d"),  // tp7
  };
}

std::vector<TriplePattern> Figure4Query() {
  return {
      Tp("?vj", "p1", "?w"),   // tp1: in N_tp(vj), indivisible with tp2
      Tp("?w", "p2", "c2"),    // tp2
      Tp("?vj", "p3", "?x"),   // tp3: in N_tp(vj), indivisible with tp4
      Tp("?x", "p4", "c4"),    // tp4
      Tp("?vj", "?a", "?b"),   // tp5: in N_tp(vj), divisible component
      Tp("?a", "?e", "?c"),    // tp6 (edges to tp5, tp7, tp8)
      Tp("?c", "p7", "c7"),    // tp7
      Tp("?b", "?e", "?d"),    // tp8 (edges to tp5, tp6, tp9)
      Tp("?vj", "p9", "?d"),   // tp9: in N_tp(vj)
  };
}

std::pair<TpSet, TpSet> CanonicalCbd(TpSet q, TpSet a, TpSet b) {
  if (a.Contains(q.First())) return {a, b};
  return {b, a};
}

std::set<std::pair<std::uint64_t, std::uint64_t>> BruteForceCbds(
    const JoinGraph& jg, TpSet q, VarId vj) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> out;
  TpSet ntp = jg.Ntp(vj) & q;
  const std::uint64_t bits = q.bits();
  // Iterate proper non-empty submasks of q.
  for (std::uint64_t sub = (bits - 1) & bits; sub != 0;
       sub = (sub - 1) & bits) {
    TpSet a(sub);
    TpSet b = q - a;
    if (b.Empty()) continue;
    if (!a.Intersects(ntp) || !b.Intersects(ntp)) continue;
    if (!jg.IsConnected(a) || !jg.IsConnected(b)) continue;
    auto [x, y] = CanonicalCbd(q, a, b);
    out.emplace(x.bits(), y.bits());
  }
  return out;
}

std::set<std::pair<std::vector<std::uint64_t>, VarId>> BruteForceCmds(
    const JoinGraph& jg, TpSet q) {
  std::set<std::pair<std::vector<std::uint64_t>, VarId>> out;
  std::vector<int> elements;
  for (int tp : q) elements.push_back(tp);

  std::vector<TpSet> blocks;
  std::function<void()> recurse = [&]() {
    std::size_t next = 0;
    TpSet used;
    for (const TpSet& b : blocks) used |= b;
    bool complete = true;
    for (int e : elements) {
      if (!used.Contains(e)) {
        next = static_cast<std::size_t>(e);
        complete = false;
        break;
      }
    }
    if (complete) {
      if (blocks.size() < 2) return;
      for (VarId vj : jg.join_vars()) {
        bool ok = true;
        for (const TpSet& b : blocks) {
          if ((b & jg.Ntp(vj)).Empty() || !jg.IsConnected(b)) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        std::vector<std::uint64_t> parts;
        for (const TpSet& b : blocks) parts.push_back(b.bits());
        std::sort(parts.begin(), parts.end());
        out.emplace(parts, vj);
      }
      return;
    }
    // Place `next` into each existing block or a new one.
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      blocks[i].Add(static_cast<int>(next));
      recurse();
      blocks[i].Remove(static_cast<int>(next));
    }
    blocks.push_back(TpSet::Singleton(static_cast<int>(next)));
    recurse();
    blocks.pop_back();
  };
  recurse();
  return out;
}

std::vector<std::vector<TermId>> MatchRows(const JoinGraph& jg,
                                           const RdfGraph& graph) {
  std::vector<std::vector<TermId>> rows;
  for (BgpMatch& m : MatchBgp(jg, graph, 0)) {
    rows.push_back(std::move(m.bindings));
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

std::set<std::vector<TermId>> ReferenceEvaluate(const JoinGraph& jg,
                                                const RdfGraph& graph) {
  const std::vector<std::vector<TermId>> rows = MatchRows(jg, graph);
  return {rows.begin(), rows.end()};
}

std::vector<std::vector<TermId>> SortedRows(const BindingTable& t,
                                            const JoinGraph& jg) {
  std::vector<std::vector<TermId>> rows(t.NumRows());
  for (std::size_t r = 0; r < t.NumRows(); ++r) {
    for (VarId v = 0; v < jg.num_vars(); ++v) {
      const int c = t.ColumnOf(v);
      rows[r].push_back(c < 0 ? kInvalidTermId : t.At(r, c));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace parqo::testing
