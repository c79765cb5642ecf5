#include "server/signature.h"

#include <algorithm>
#include <array>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/tp_set.h"

namespace parqo {
namespace {

// Individualization budget: total canonical-form candidates rendered per
// query. Refinement alone separates every realistic BGP (predicates are
// strong initial colors); the search only runs on symmetric queries, and
// past the budget the form falls back to deterministic-but-not-invariant
// tie-breaking with CanonicalBgp::exact = false.
constexpr int kMaxCandidates = 128;

// One refinement node: a variable or a subject/object constant equality
// class. Predicate constants are edge labels, not nodes.
struct Node {
  bool is_var = false;
  std::string var_name;  // when is_var
  Term constant;         // representative value when !is_var
  /// (pattern index, position: 0 = subject, 1 = predicate, 2 = object).
  std::vector<std::pair<int, int>> occurrences;
};

struct TermLess {
  bool operator()(const Term& a, const Term& b) const {
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.lexical < b.lexical;
  }
};

// The BGP decomposed into refinement nodes. Node ids reflect discovery
// order and are NOT canonical; only the color partition computed from the
// structure is. Every container here is ordered — hash order must never
// reach the signature (tools/parqo_lint.py: unordered-in-signature).
struct Decomposition {
  const std::vector<TriplePattern>* patterns = nullptr;
  std::vector<Node> nodes;
  /// Per pattern: node id of s/p/o, or -1 for a constant predicate.
  std::vector<std::array<int, 3>> pattern_nodes;
};

Decomposition Decompose(const std::vector<TriplePattern>& patterns) {
  Decomposition d;
  d.patterns = &patterns;
  std::map<std::string, int> var_node;
  std::map<Term, int, TermLess> const_node;
  auto node_of = [&](const PatternTerm& t, int pattern, int pos) -> int {
    int id;
    if (t.IsVar()) {
      auto [it, inserted] =
          var_node.emplace(t.var, static_cast<int>(d.nodes.size()));
      if (inserted) {
        Node n;
        n.is_var = true;
        n.var_name = t.var;
        d.nodes.push_back(std::move(n));
      }
      id = it->second;
    } else {
      auto [it, inserted] =
          const_node.emplace(t.term, static_cast<int>(d.nodes.size()));
      if (inserted) {
        Node n;
        n.is_var = false;
        n.constant = t.term;
        d.nodes.push_back(std::move(n));
      }
      id = it->second;
    }
    d.nodes[id].occurrences.emplace_back(pattern, pos);
    return id;
  };
  for (int i = 0; i < static_cast<int>(patterns.size()); ++i) {
    const TriplePattern& tp = patterns[i];
    std::array<int, 3> ids{-1, -1, -1};
    ids[0] = node_of(tp.s, i, 0);
    // A constant predicate stays a literal edge label; only predicate
    // *variables* join and therefore become nodes.
    if (tp.p.IsVar()) ids[1] = node_of(tp.p, i, 1);
    ids[2] = node_of(tp.o, i, 2);
    d.pattern_nodes.push_back(ids);
  }
  return d;
}

// Renders one pattern position under a color assignment ("V<color>" for a
// variable node, "K<color>" for a constant class, literal label for a
// constant predicate). Used during refinement only.
std::string ColorEntry(const Decomposition& d, int pattern, int pos,
                       const std::vector<int>& color) {
  int node = d.pattern_nodes[pattern][pos];
  if (node < 0) return (*d.patterns)[pattern].p.term.ToNTriples();
  return std::string(d.nodes[node].is_var ? "V" : "K") +
         std::to_string(color[node]);
}

// One round of Weisfeiler–Lehman refinement: each node's new color is the
// rank of (old color, sorted multiset of its occurrence contexts). Colors
// are dense ranks, so the result depends only on the query's structure,
// never on node discovery order. Iterates until the partition stops
// refining.
std::vector<int> Refine(const Decomposition& d, std::vector<int> color) {
  const int n = static_cast<int>(d.nodes.size());
  if (n == 0) return color;
  int distinct = 0;
  {
    std::vector<int> sorted = color;
    std::sort(sorted.begin(), sorted.end());
    distinct = static_cast<int>(
        std::unique(sorted.begin(), sorted.end()) - sorted.begin());
  }
  for (int round = 0; round < n; ++round) {
    // Pattern context strings under the current coloring.
    std::vector<std::string> pkey(d.pattern_nodes.size());
    for (std::size_t p = 0; p < d.pattern_nodes.size(); ++p) {
      pkey[p] = ColorEntry(d, static_cast<int>(p), 0, color) + " " +
                ColorEntry(d, static_cast<int>(p), 1, color) + " " +
                ColorEntry(d, static_cast<int>(p), 2, color);
    }
    std::vector<std::pair<std::string, int>> sigs;
    sigs.reserve(n);
    for (int i = 0; i < n; ++i) {
      std::vector<std::string> occ;
      occ.reserve(d.nodes[i].occurrences.size());
      for (const auto& [p, pos] : d.nodes[i].occurrences) {
        occ.push_back(std::to_string(pos) + "@" + pkey[p]);
      }
      std::sort(occ.begin(), occ.end());
      std::string sig = std::to_string(color[i]);
      sig += '|';
      for (const std::string& o : occ) {
        sig += o;
        sig += ';';
      }
      sigs.emplace_back(std::move(sig), i);
    }
    std::sort(sigs.begin(), sigs.end());
    std::vector<int> next(n);
    int next_distinct = 0;
    for (std::size_t k = 0; k < sigs.size(); ++k) {
      if (k > 0 && sigs[k].first != sigs[k - 1].first) ++next_distinct;
      next[sigs[k].second] = next_distinct;
    }
    ++next_distinct;
    color = std::move(next);
    if (next_distinct == distinct || next_distinct == n) break;
    distinct = next_distinct;
  }
  return color;
}

/// Total node order for rendering: by color, ties (only possible past the
/// individualization budget) by node id. Returns per-node rank.
std::vector<int> RanksFrom(const std::vector<int>& color) {
  std::vector<int> order(color.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (color[a] != color[b]) return color[a] < color[b];
    return a < b;
  });
  std::vector<int> rank(color.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    rank[order[k]] = static_cast<int>(k);
  }
  return rank;
}

CanonicalBgp Render(const Decomposition& d, const std::vector<int>& color,
                    bool exact) {
  const auto& patterns = *d.patterns;
  std::vector<int> rank = RanksFrom(color);

  // Canonical numbering: variables and constant classes each numbered by
  // their rank order among their own kind.
  std::vector<int> var_num(d.nodes.size(), -1);
  std::vector<int> const_num(d.nodes.size(), -1);
  {
    std::vector<int> by_rank(d.nodes.size());
    for (std::size_t i = 0; i < d.nodes.size(); ++i) {
      by_rank[rank[i]] = static_cast<int>(i);
    }
    int vars = 0, consts = 0;
    for (int node : by_rank) {
      if (d.nodes[node].is_var) {
        var_num[node] = vars++;
      } else {
        const_num[node] = consts++;
      }
    }
  }

  auto render_pos = [&](int pattern, int pos) -> std::string {
    int node = d.pattern_nodes[pattern][pos];
    if (node < 0) return patterns[pattern].p.term.ToNTriples();
    if (d.nodes[node].is_var) {
      return std::string("?x") + std::to_string(var_num[node]);
    }
    return std::string("$") + std::to_string(const_num[node]);
  };

  std::vector<std::pair<std::string, int>> rendered;
  rendered.reserve(patterns.size());
  for (int i = 0; i < static_cast<int>(patterns.size()); ++i) {
    rendered.emplace_back(render_pos(i, 0) + " " + render_pos(i, 1) + " " +
                              render_pos(i, 2),
                          i);
  }
  std::sort(rendered.begin(), rendered.end());

  // The rank numbering above fixes the canonical *pattern order*; the
  // final variable numbers are re-assigned by first occurrence in that
  // order (s, p, o within a pattern). That is exactly the order
  // JoinGraph interns VarIds in, so canonical variable xk IS VarId k of
  // JoinGraph(out.patterns) and result columns line up with var_names.
  // A structure-determined permutation of an invariant numbering is
  // still invariant.
  for (int& v : var_num) {
    if (v >= 0) v = -1;
  }
  {
    int next = 0;
    for (const auto& [text, orig] : rendered) {
      (void)text;
      for (int pos = 0; pos < 3; ++pos) {
        int node = d.pattern_nodes[orig][pos];
        if (node >= 0 && d.nodes[node].is_var && var_num[node] < 0) {
          var_num[node] = next++;
        }
      }
    }
  }

  CanonicalBgp out;
  out.exact = exact;
  for (std::size_t k = 0; k < rendered.size(); ++k) {
    int orig = rendered[k].second;
    if (k > 0) out.signature += " . ";
    out.signature += render_pos(orig, 0) + " " + render_pos(orig, 1) + " " +
                     render_pos(orig, 2);
    out.pattern_perm.push_back(orig);
  }

  // Canonical pattern list: canonical order, canonical variable names,
  // original constants.
  auto canonical_term = [&](int pattern, int pos) -> PatternTerm {
    int node = d.pattern_nodes[pattern][pos];
    const TriplePattern& tp = patterns[pattern];
    const PatternTerm& orig = pos == 0 ? tp.s : (pos == 1 ? tp.p : tp.o);
    if (node < 0 || !d.nodes[node].is_var) return orig;
    return PatternTerm::Var(std::string("x") + std::to_string(var_num[node]));
  };
  for (const auto& [text, orig] : rendered) {
    (void)text;
    TriplePattern tp;
    tp.s = canonical_term(orig, 0);
    tp.p = canonical_term(orig, 1);
    tp.o = canonical_term(orig, 2);
    out.patterns.push_back(std::move(tp));
  }

  // Externalized parameters and the variable-name mapping, by canonical
  // number.
  int num_vars = 0, num_consts = 0;
  for (std::size_t i = 0; i < d.nodes.size(); ++i) {
    if (d.nodes[i].is_var) ++num_vars;
    else ++num_consts;
  }
  out.var_names.resize(num_vars);
  out.constants.resize(num_consts);
  for (std::size_t i = 0; i < d.nodes.size(); ++i) {
    if (d.nodes[i].is_var) {
      out.var_names[var_num[i]] = d.nodes[i].var_name;
    } else {
      out.constants[const_num[i]] = d.nodes[i].constant;
    }
  }
  return out;
}

/// Smallest color value shared by at least two nodes, or -1 when the
/// coloring is discrete. The class is identified by its color (a rank),
/// which is invariant, so every isomorphic copy branches on the same
/// class.
int FirstAmbiguousColor(const std::vector<int>& color) {
  std::map<int, int> count;
  for (int c : color) ++count[c];
  for (const auto& [c, n] : count) {
    if (n >= 2) return c;
  }
  return -1;
}

struct Search {
  const Decomposition* d = nullptr;
  int candidates = 0;
  bool exhausted = false;
  bool have_best = false;
  CanonicalBgp best;

  void Consider(CanonicalBgp cand) {
    if (!have_best || cand.signature < best.signature) {
      have_best = true;
      best = std::move(cand);
    }
  }

  // Individualization-refinement: branch on each member of the first
  // ambiguous class, keep the lexicographically smallest canonical form.
  // Trying every member makes the choice independent of node discovery
  // order, which is what makes the form renaming-invariant.
  void Run(std::vector<int> color) {
    color = Refine(*d, std::move(color));
    int ambiguous = FirstAmbiguousColor(color);
    if (ambiguous < 0) {
      ++candidates;
      Consider(Render(*d, color, /*exact=*/true));
      return;
    }
    if (candidates >= kMaxCandidates) {
      exhausted = true;
      ++candidates;
      Consider(Render(*d, color, /*exact=*/false));
      return;
    }
    for (std::size_t i = 0; i < color.size(); ++i) {
      if (color[i] != ambiguous) continue;
      if (candidates >= kMaxCandidates) {
        // Out of budget mid-class: the branches explored so far still
        // yield a deterministic (input-order-dependent) form.
        exhausted = true;
        break;
      }
      // Individualize node i: split it below its class, preserving the
      // relative order of all other colors.
      std::vector<int> child(color.size());
      for (std::size_t j = 0; j < color.size(); ++j) {
        child[j] = color[j] * 2 + (j == i ? 0 : 1);
      }
      Run(std::move(child));
    }
  }
};

}  // namespace

CanonicalBgp CanonicalizeBgp(const std::vector<TriplePattern>& patterns) {
  PARQO_CHECK(static_cast<int>(patterns.size()) <= TpSet::kMaxSize);
  if (patterns.empty()) return CanonicalBgp{};

  Decomposition d = Decompose(patterns);
  std::vector<int> color(d.nodes.size());
  for (std::size_t i = 0; i < d.nodes.size(); ++i) {
    color[i] = d.nodes[i].is_var ? 0 : 1;
  }
  Search search;
  search.d = &d;
  search.Run(std::move(color));
  PARQO_CHECK(search.have_best);
  if (search.exhausted) search.best.exact = false;
  return search.best;
}

}  // namespace parqo
