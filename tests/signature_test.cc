// Regression tests for BGP canonicalization (server/signature.h): the
// signature must be a pure function of the query's structure — invariant
// under variable renaming, triple-pattern permutation, and constant-value
// substitution — because the serving layer's plan cache keys on it. The
// original bug class: a signature derived from variable spellings or
// container iteration order maps the same template to many keys (cache
// misses) or, worse, different templates to one key (wrong plan served).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "query/join_graph.h"
#include "server/signature.h"
#include "tests/test_util.h"
#include "workload/watdiv.h"

namespace parqo {
namespace {

using testing::Tp;

/// Renames every variable through `names` (old name without '?' -> new
/// name without '?').
std::vector<TriplePattern> Rename(
    const std::vector<TriplePattern>& patterns,
    const std::map<std::string, std::string>& names) {
  std::vector<TriplePattern> out = patterns;
  for (TriplePattern& tp : out) {
    for (PatternTerm* t : {&tp.s, &tp.p, &tp.o}) {
      if (!t->IsVar()) continue;
      auto it = names.find(t->var);
      if (it != names.end()) t->var = it->second;
    }
  }
  return out;
}

/// Deterministic pseudo-random renaming + permutation of a query.
std::vector<TriplePattern> Scramble(const std::vector<TriplePattern>& patterns,
                                    Rng& rng) {
  std::map<std::string, std::string> names;
  for (const TriplePattern& tp : patterns) {
    for (const std::string& v : tp.Variables()) {
      if (!names.count(v)) {
        names[v] = "scr" + std::to_string(rng.Next() % 100000) + "_" +
                   std::to_string(names.size());
      }
    }
  }
  std::vector<TriplePattern> out = Rename(patterns, names);
  // Fisher-Yates with the test rng.
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Next() % i]);
  }
  return out;
}

TEST(SignatureTest, MinimizedRenameAndPermuteRegression) {
  // The minimized reproducer for the original bug: the same 3-pattern
  // query written with different variable names and a different pattern
  // order must produce the identical signature.
  std::vector<TriplePattern> original = {
      Tp("?a", "p1", "?b"),
      Tp("?b", "p2", "?c"),
      Tp("?c", "p3", "k1"),
  };
  std::vector<TriplePattern> rewritten = {
      Tp("?z", "p3", "k1"),
      Tp("?x", "p1", "?y"),
      Tp("?y", "p2", "?z"),
  };
  CanonicalBgp a = CanonicalizeBgp(original);
  CanonicalBgp b = CanonicalizeBgp(rewritten);
  EXPECT_EQ(a.signature, b.signature);
  EXPECT_TRUE(a.exact);
  EXPECT_TRUE(b.exact);
  // Identical signature means identical canonical pattern lists (with the
  // caller's own constants, which here coincide).
  EXPECT_EQ(a.patterns, b.patterns);
}

TEST(SignatureTest, SignatureDistinguishesPredicates) {
  // Predicates stay literal in the signature: they are the workload's
  // plan discriminator.
  CanonicalBgp a = CanonicalizeBgp({Tp("?a", "p1", "?b")});
  CanonicalBgp b = CanonicalizeBgp({Tp("?a", "p2", "?b")});
  EXPECT_NE(a.signature, b.signature);
}

TEST(SignatureTest, ConstantsParameterizeByEqualityClass) {
  // Subject/object constant *values* are parameterized out...
  CanonicalBgp a =
      CanonicalizeBgp({Tp("?a", "p", "k1"), Tp("?a", "q", "k2")});
  CanonicalBgp b =
      CanonicalizeBgp({Tp("?a", "p", "k9"), Tp("?a", "q", "k3")});
  EXPECT_EQ(a.signature, b.signature);
  ASSERT_EQ(a.constants.size(), 2u);
  ASSERT_EQ(b.constants.size(), 2u);

  // ...but constant *sharing* is structure: a query whose two positions
  // hold the SAME constant dedups to one query-graph vertex and can need
  // a different plan, so it must get a different signature.
  CanonicalBgp shared =
      CanonicalizeBgp({Tp("?a", "p", "k1"), Tp("?a", "q", "k1")});
  EXPECT_NE(a.signature, shared.signature);
  EXPECT_EQ(shared.constants.size(), 1u);
}

TEST(SignatureTest, VarNamesAndPermRoundTrip) {
  std::vector<TriplePattern> q = {
      Tp("?user", "follows", "?friend"),
      Tp("?friend", "likes", "?product"),
  };
  CanonicalBgp c = CanonicalizeBgp(q);
  ASSERT_EQ(c.patterns.size(), q.size());
  ASSERT_EQ(c.pattern_perm.size(), q.size());
  // Undoing the renaming and the permutation must recover the original
  // pattern list exactly.
  std::map<std::string, std::string> undo;
  for (std::size_t k = 0; k < c.var_names.size(); ++k) {
    undo[std::string("x") + std::to_string(k)] = c.var_names[k];
  }
  for (std::size_t i = 0; i < c.patterns.size(); ++i) {
    std::vector<TriplePattern> restored = Rename({c.patterns[i]}, undo);
    EXPECT_EQ(restored[0], q[c.pattern_perm[i]]) << "canonical index " << i;
  }
}

TEST(SignatureTest, SymmetricCycleIsInvariant) {
  // A 3-cycle with one predicate is fully symmetric: refinement alone
  // cannot split the variables and individualization must break the tie
  // the same way for every rotation/renaming.
  std::vector<TriplePattern> cycle = {
      Tp("?a", "p", "?b"),
      Tp("?b", "p", "?c"),
      Tp("?c", "p", "?a"),
  };
  CanonicalBgp base = CanonicalizeBgp(cycle);
  EXPECT_TRUE(base.exact);
  Rng rng(41);
  for (int trial = 0; trial < 32; ++trial) {
    CanonicalBgp scrambled = CanonicalizeBgp(Scramble(cycle, rng));
    EXPECT_EQ(scrambled.signature, base.signature) << "trial " << trial;
  }
}

TEST(SignatureTest, AllPermutationsOfSmallQueryAgree) {
  std::vector<TriplePattern> q = {
      Tp("?a", "p1", "?b"),
      Tp("?b", "p2", "?c"),
      Tp("?a", "p3", "?c"),
      Tp("?c", "p4", "k1"),
  };
  CanonicalBgp base = CanonicalizeBgp(q);
  std::vector<int> perm = {0, 1, 2, 3};
  do {
    std::vector<TriplePattern> permuted;
    for (int i : perm) permuted.push_back(q[i]);
    EXPECT_EQ(CanonicalizeBgp(permuted).signature, base.signature);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(SignatureTest, WatdivTemplateSweepInvariance) {
  // Every one of the 124 WatDiv templates, scrambled several ways, must
  // keep its signature; and distinct templates must (with their distinct
  // predicate walks) get distinct signatures almost always — the cache
  // hit rate acceptance bar depends on both directions.
  Rng rng(2017);
  std::vector<WatdivTemplate> templates = GenerateWatdivTemplates(124, rng);
  Rng scramble_rng(7);
  std::map<std::string, int> sig_to_template;
  int collisions = 0;
  for (const WatdivTemplate& t : templates) {
    CanonicalBgp base = CanonicalizeBgp(t.patterns);
    EXPECT_TRUE(base.exact) << "template " << t.id;
    for (int trial = 0; trial < 4; ++trial) {
      CanonicalBgp s =
          CanonicalizeBgp(Scramble(t.patterns, scramble_rng));
      EXPECT_EQ(s.signature, base.signature)
          << "template " << t.id << " trial " << trial;
    }
    auto [it, inserted] = sig_to_template.emplace(base.signature, t.id);
    if (!inserted) ++collisions;
  }
  // Random-walk templates can occasionally coincide structurally; what
  // must not happen is wholesale collapse.
  EXPECT_LT(collisions, 10);
}

TEST(SignatureTest, CanonicalVarNumbersMatchJoinGraphVarIds) {
  // Regression: parqo_serve maps result columns through
  // ColumnOf(VarId k) == var_names[k], which requires canonical ?xk to
  // be VarId k of a JoinGraph over canon.patterns. JoinGraph interns
  // VarIds by first occurrence in (s, p, o) pattern order, so canonical
  // numbering must follow the same rule — not refinement-rank order.
  // This query's rank order differs from first-occurrence order, which
  // once produced headers misaligned with the row cells.
  std::vector<TriplePattern> q = {
      Tp("?p", "<http://ex/worksFor>", "?l"),
      Tp("?l", "<http://ex/partOf>", "?d"),
  };
  CanonicalBgp canon = CanonicalizeBgp(q);
  JoinGraph jg(canon.patterns);
  ASSERT_EQ(jg.num_vars(), static_cast<int>(canon.var_names.size()));
  for (VarId v = 0; v < jg.num_vars(); ++v) {
    EXPECT_EQ(jg.var_name(v), std::string("x") + std::to_string(v));
  }
  // Sweep the WatDiv templates too: every canonical form must intern in
  // ?x0, ?x1, ... order.
  Rng rng(2017);
  for (const WatdivTemplate& t : GenerateWatdivTemplates(124, rng)) {
    CanonicalBgp c = CanonicalizeBgp(t.patterns);
    JoinGraph g(c.patterns);
    ASSERT_EQ(g.num_vars(), static_cast<int>(c.var_names.size()))
        << "template " << t.id;
    for (VarId v = 0; v < g.num_vars(); ++v) {
      ASSERT_EQ(g.var_name(v), std::string("x") + std::to_string(v))
          << "template " << t.id;
    }
  }
}

TEST(SignatureTest, EmptyAndSingletonQueries) {
  EXPECT_EQ(CanonicalizeBgp({}).signature, "");
  CanonicalBgp one = CanonicalizeBgp({Tp("?s", "p", "?o")});
  EXPECT_TRUE(one.exact);
  EXPECT_EQ(one.patterns.size(), 1u);
  EXPECT_EQ(one.var_names.size(), 2u);
}

}  // namespace
}  // namespace parqo
