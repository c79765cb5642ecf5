// Tests for the extension features beyond the paper's core: the BGP
// matcher, the hot-query (dynamic partitioning) model from the appendix,
// plan export, and the Binary-DP (TriAD-style) baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/cluster.h"
#include "exec/executor.h"
#include "optimizer/plan_validator.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "partition/hot_query.h"
#include "plan/export.h"
#include "query/match.h"
#include "rdf/ntriples.h"
#include "sparql/parser.h"
#include "tests/optimizer_test_util.h"
#include "tests/test_util.h"

namespace parqo {
namespace {

using testing::QueryFixture;
using testing::Tp;

TEST(MatchBgpTest, FindsAllMatches) {
  auto g = ParseNTriplesString(
      "<a> <p> <b> .\n"
      "<b> <q> <c> .\n"
      "<a> <p> <d> .\n"
      "<d> <q> <c> .\n"
      "<d> <q> <e> .\n");
  ASSERT_TRUE(g.ok());
  JoinGraph jg({Tp("?x", "p", "?y"), Tp("?y", "q", "?z")});
  auto matches = MatchBgp(jg, *g, 0);
  EXPECT_EQ(matches.size(), 3u);  // (a,b,c), (a,d,c), (a,d,e)
  for (const BgpMatch& m : matches) {
    EXPECT_EQ(m.triples.size(), 2u);
    EXPECT_EQ(m.bindings.size(), 3u);
    // The matched triples really connect through the binding of ?y.
    EXPECT_EQ(m.triples[0].o, m.bindings[jg.FindVar("y")]);
    EXPECT_EQ(m.triples[1].s, m.bindings[jg.FindVar("y")]);
  }
}

TEST(MatchBgpTest, LimitStopsEarly) {
  auto g = ParseNTriplesString(
      "<a> <p> <b> .\n<a> <p> <c> .\n<a> <p> <d> .\n");
  ASSERT_TRUE(g.ok());
  JoinGraph jg({Tp("?x", "p", "?y")});
  EXPECT_EQ(MatchBgp(jg, *g, 2).size(), 2u);
  EXPECT_EQ(MatchBgp(jg, *g, 0).size(), 3u);
}

TEST(MatchBgpTest, UnmatchableConstantIsEmpty) {
  auto g = ParseNTriplesString("<a> <p> <b> .\n");
  ASSERT_TRUE(g.ok());
  JoinGraph jg({Tp("?x", "nosuch", "?y")});
  EXPECT_TRUE(MatchBgp(jg, *g, 0).empty());
}

// The oracle's oracle: every tuple of graph triples, one per pattern,
// that unifies with the patterns under a single binding.
std::set<std::vector<TermId>> CrossProductMatches(const JoinGraph& jg,
                                                  const RdfGraph& g) {
  const std::vector<Triple>& triples = g.triples();
  std::set<std::vector<TermId>> out;
  std::vector<std::size_t> pick(jg.num_tps(), 0);
  for (;;) {
    std::vector<TermId> binding(jg.num_vars(), kInvalidTermId);
    bool ok = true;
    for (int i = 0; i < jg.num_tps() && ok; ++i) {
      const TriplePattern& tp = jg.pattern(i);
      const Triple& t = triples[pick[i]];
      for (auto [term, value] : {std::pair{&tp.s, t.s}, std::pair{&tp.p, t.p},
                                 std::pair{&tp.o, t.o}}) {
        if (!term->IsVar()) {
          ok = ok && g.dict().Lookup(term->term) == value;
          continue;
        }
        TermId& b = binding[jg.FindVar(term->var)];
        if (b == kInvalidTermId) b = value;
        ok = ok && b == value;
      }
    }
    if (ok) out.insert(binding);
    std::size_t i = 0;
    while (i < pick.size() && ++pick[i] == triples.size()) pick[i++] = 0;
    if (i == pick.size()) return out;
  }
}

// Random graphs of a dozen triples over a handful of terms, so self
// loops (?x p ?x) and predicates in subject or object position occur,
// against a random 1-3 pattern BGP and fixed ones covering ?x p ?x,
// variable predicates (shared, and in subject or object position) and a
// constant the dictionary lacks. `limit` must return exactly
// min(limit, total) distinct matches, each one in the full set.
TEST(MatchBgpTest, AgreesWithCrossProductOnRandomGraphs) {
  Rng rng(2017);
  const std::vector<std::string> nodes{"e0", "e1", "e2", "p0"};
  const std::vector<std::string> preds{"p0", "p1"};
  const std::vector<std::string> vars{"?a", "?b", "?c", "?p"};
  auto draw = [&](const std::vector<std::string>& v) {
    return v[rng.Uniform(0, static_cast<std::int64_t>(v.size()) - 1)];
  };
  int nonempty = 0;
  for (int round = 0; round < 300; ++round) {
    std::string text;
    for (int i = rng.Uniform(4, 12); i > 0; --i) {
      // Object, predicate, subject: the order the draws have always run
      // in. Appends rather than "<" + std::string&&, which GCC 12's
      // -Wrestrict misreports at -O3.
      const std::string o = draw(nodes);
      const std::string p = draw(preds);
      const std::string s = draw(nodes);
      text.append("<").append(s).append("> <").append(p).append("> <");
      text.append(o).append("> .\n");
    }
    auto g = ParseNTriplesString(text);
    ASSERT_TRUE(g.ok());
    auto term = [&](const std::vector<std::string>& constants) {
      const std::int64_t roll = rng.Uniform(0, 19);
      if (roll == 0) return std::string("missing");
      return roll < 12 ? draw(vars) : draw(constants);
    };
    std::vector<TriplePattern> random;
    for (int i = rng.Uniform(1, 3); i > 0; --i) {
      random.push_back(Tp(term(nodes), term(preds), term(nodes)));
    }
    const std::vector<std::vector<TriplePattern>> queries{
        random,
        {Tp("?a", "p0", "?a")},
        {Tp("?a", "?p", "?b"), Tp("?b", "?p", "?c")},
        {Tp("?a", "p1", "?p"), Tp("?b", "?p", "?a")},
        {Tp("?a", "p0", "?b"), Tp("?b", "missing", "?c")},
    };
    for (const std::vector<TriplePattern>& patterns : queries) {
      JoinGraph jg(patterns);
      SCOPED_TRACE(text + "round " + std::to_string(round) + ", " +
                   std::to_string(patterns.size()) + " patterns");

      const std::set<std::vector<TermId>> truth =
          CrossProductMatches(jg, *g);
      const std::vector<BgpMatch> all = MatchBgp(jg, *g, 0);
      std::set<std::vector<TermId>> found;
      for (const BgpMatch& m : all) {
        found.insert(m.bindings);
        // The matched triples are the patterns under the binding.
        ASSERT_EQ(m.triples.size(), patterns.size());
        for (std::size_t i = 0; i < patterns.size(); ++i) {
          auto value = [&](const PatternTerm& t) {
            return t.IsVar() ? m.bindings[jg.FindVar(t.var)]
                             : g->dict().Lookup(t.term);
          };
          EXPECT_EQ(m.triples[i], (Triple{value(patterns[i].s),
                                          value(patterns[i].p),
                                          value(patterns[i].o)}));
        }
      }
      EXPECT_EQ(found.size(), all.size()) << "duplicate matches";
      EXPECT_EQ(found, truth);
      nonempty += truth.empty() ? 0 : 1;

      for (std::size_t limit = 1; limit <= truth.size() + 1; ++limit) {
        std::set<std::vector<TermId>> capped;
        for (const BgpMatch& m : MatchBgp(jg, *g, limit)) {
          EXPECT_TRUE(truth.count(m.bindings)) << "limit " << limit;
          capped.insert(m.bindings);
        }
        EXPECT_EQ(capped.size(), std::min(limit, truth.size()))
            << "limit " << limit;
      }
    }
  }
  EXPECT_GT(nonempty, 500);  // the sweep exercises real matches
}

TEST(HotQueryTest, IntersectionDetection) {
  // Query: Figure 1. Hot query: a (?s p3 ?o)(?o p4 ?o2) chain, which
  // embeds tp3 and tp4.
  JoinGraph jg(testing::Figure1Query());
  QueryGraph qg(jg);
  std::vector<TriplePattern> hot{Tp("?s", "p3", "?o"),
                                 Tp("?o", "p4", "?o2")};
  int ve = qg.VertexOfVar(jg.FindVar("e"));
  ASSERT_GE(ve, 0);
  TpSet inter = HotQueryIntersection(qg, hot, ve);
  TpSet expected;
  expected.Add(2);  // tp3
  expected.Add(3);  // tp4
  EXPECT_EQ(inter, expected);

  // A vertex not touching the intersection contributes nothing.
  int vf = qg.VertexOfVar(jg.FindVar("f"));
  EXPECT_TRUE(HotQueryIntersection(qg, hot, vf).Empty());
}

TEST(HotQueryTest, MlqGrowsBeyondBasePartitioner) {
  JoinGraph jg(testing::Figure1Query());
  QueryGraph qg(jg);
  HashSoPartitioner hash;
  // Hot query covering the whole Figure 1 shape via wildcard patterns
  // with the same predicates.
  std::vector<TriplePattern> hot{
      Tp("?a", "p1", "?b"), Tp("?c", "p2", "?d"), Tp("?e", "p3", "?f"),
      Tp("?g", "p4", "?h"), Tp("?i", "p5", "?j"), Tp("?k", "p6", "?l"),
      Tp("?m", "p7", "?n")};
  HotQueryPartitioner dynamic(hash, {hot});
  EXPECT_EQ(dynamic.name(), "hash-so+hot");

  int va = qg.VertexOfVar(jg.FindVar("a"));
  TpSet base_mlq = hash.MaximalLocalQuery(qg, va);
  TpSet hot_mlq = dynamic.MaximalLocalQuery(qg, va);
  EXPECT_GT(hot_mlq.Count(), base_mlq.Count());
  EXPECT_EQ(hot_mlq, jg.AllTps());  // the whole query embeds
}

TEST(HotQueryTest, HotQueryExecutesLocally) {
  // When the workload query IS the hot query, all its matches are
  // co-located, the optimizer sees it as local, and the local plan
  // produces exactly the reference results.
  auto g = ParseNTriplesString(
      "<a> <works> <l1> .\n<b> <works> <l1> .\n<c> <works> <l2> .\n"
      "<l1> <part> <d1> .\n<l2> <part> <d2> .\n"
      "<a> <age> <x1> .\n<b> <age> <x2> .\n<c> <age> <x3> .\n");
  ASSERT_TRUE(g.ok());
  std::vector<TriplePattern> patterns{Tp("?p", "works", "?l"),
                                      Tp("?l", "part", "?d"),
                                      Tp("?p", "age", "?x")};
  HashSoPartitioner hash;
  HotQueryPartitioner dynamic(hash, {patterns});

  PreparedQuery prepared(patterns, dynamic, StatsFromData(*g));
  // The whole query must be local under the hot-query model.
  EXPECT_TRUE(
      prepared.local_index().IsLocal(prepared.join_graph().AllTps()));

  OptimizeResult r =
      Optimize(Algorithm::kTdCmdp, prepared.inputs(), OptimizeOptions{});
  ASSERT_NE(r.plan, nullptr);
  EXPECT_EQ(r.plan->method, JoinMethod::kLocal);

  Cluster cluster(*g, dynamic.PartitionData(*g, 4));
  Executor executor(cluster, prepared.join_graph(), CostParams{});
  ExecMetrics metrics;
  auto rows = executor.Execute(*r.plan, &metrics);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(metrics.rows_transferred, 0u);
  EXPECT_EQ(rows->NumRows(),
            testing::ReferenceEvaluate(prepared.join_graph(), *g).size());
}

TEST(HotQueryTest, DataSideStillCoversEverything) {
  auto g = ParseNTriplesString(
      "<a> <p> <b> .\n<b> <q> <c> .\n<x> <r> <y> .\n");
  ASSERT_TRUE(g.ok());
  HashSoPartitioner hash;
  HotQueryPartitioner dynamic(hash,
                              {{Tp("?s", "p", "?o"), Tp("?o", "q", "?z")}});
  PartitionAssignment pa = dynamic.PartitionData(*g, 3);
  std::vector<bool> covered(g->NumTriples(), false);
  for (const auto& node : pa.node_triples) {
    for (TripleIdx i : node) covered[i] = true;
  }
  for (bool c : covered) EXPECT_TRUE(c);
}

TEST(PlanExportTest, DotAndJsonContainStructure) {
  Rng rng(88);
  GeneratedQuery q = GenerateRandomQuery(QueryShape::kChain, 4, rng);
  QueryFixture fx(q, /*use_hash_locality=*/false);
  OptimizeResult r =
      Optimize(Algorithm::kTdCmd, fx.inputs(), OptimizeOptions{});
  ASSERT_NE(r.plan, nullptr);

  std::string dot = PlanToDot(*r.plan, fx.jg());
  EXPECT_NE(dot.find("digraph plan"), std::string::npos);
  EXPECT_NE(dot.find("scan tp0"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);

  std::string json = PlanToJson(*r.plan, fx.jg());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"kind\":\"join\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"scan\""), std::string::npos);
  EXPECT_NE(json.find("\"totalCost\""), std::string::npos);
  // Braces balance (cheap well-formedness check).
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(BinaryDpTest, PlansAreBinaryOnly) {
  Rng rng(89);
  GeneratedQuery q = GenerateRandomQuery(QueryShape::kTree, 9, rng);
  QueryFixture fx(q, /*use_hash_locality=*/false);
  OptimizeResult r =
      Optimize(Algorithm::kBinaryDp, fx.inputs(), OptimizeOptions{});
  ASSERT_NE(r.plan, nullptr);
  EXPECT_EQ(r.algorithm_used, Algorithm::kBinaryDp);
  EXPECT_TRUE(PlanValidator(fx.jg(), nullptr).ValidatePlan(*r.plan).ok());
  std::function<void(const PlanNode&)> check = [&](const PlanNode& n) {
    if (n.kind == PlanNode::Kind::kJoin) {
      EXPECT_EQ(n.children.size(), 2u);
    }
    for (const PlanNodePtr& c : n.children) check(*c);
  };
  check(*r.plan);
}

TEST(BinaryDpTest, NeverBeatsKaryTdCmd) {
  for (QueryShape shape :
       {QueryShape::kStar, QueryShape::kTree, QueryShape::kDense}) {
    Rng rng(90);
    GeneratedQuery q = GenerateRandomQuery(shape, 8, rng);
    QueryFixture fx1(q), fx2(q);
    OptimizeResult kary =
        Optimize(Algorithm::kTdCmd, fx1.inputs(), OptimizeOptions{});
    OptimizeResult binary =
        Optimize(Algorithm::kBinaryDp, fx2.inputs(), OptimizeOptions{});
    ASSERT_NE(kary.plan, nullptr);
    ASSERT_NE(binary.plan, nullptr);
    EXPECT_GE(binary.plan->total_cost, kary.plan->total_cost - 1e-9)
        << ToString(shape);
    // The binary space is strictly smaller on star-like shapes.
    EXPECT_LE(binary.enumerated, kary.enumerated);
  }
}

TEST(BinaryDpTest, ChainSpaceEqualsTdCmd) {
  // Chains have no k>2 divisions, so the spaces coincide.
  Rng rng(91);
  GeneratedQuery q = GenerateRandomQuery(QueryShape::kChain, 10, rng);
  QueryFixture fx1(q, false), fx2(q, false);
  OptimizeResult kary =
      Optimize(Algorithm::kTdCmd, fx1.inputs(), OptimizeOptions{});
  OptimizeResult binary =
      Optimize(Algorithm::kBinaryDp, fx2.inputs(), OptimizeOptions{});
  EXPECT_EQ(binary.enumerated, kary.enumerated);
  EXPECT_DOUBLE_EQ(binary.plan->total_cost, kary.plan->total_cost);
}

}  // namespace
}  // namespace parqo
