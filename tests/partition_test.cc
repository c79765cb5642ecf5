// Partitioner invariants: total coverage of the data side, the
// query-side maximal local queries of Examples 5 and 7, and the
// LocalQueryIndex containment logic (Theorem 5 / Lemma 4).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "partition/hash_so.h"
#include "partition/hot_query.h"
#include "partition/local_query_index.h"
#include "partition/min_edge_cut.h"
#include "partition/path_bmc.h"
#include "partition/two_hop.h"
#include "sparql/parser.h"
#include "tests/test_util.h"
#include "workload/benchmark_queries.h"
#include "workload/lubm.h"

namespace parqo {
namespace {

using testing::Figure1Query;

std::vector<std::unique_ptr<Partitioner>> AllPartitioners() {
  std::vector<std::unique_ptr<Partitioner>> out;
  out.push_back(std::make_unique<HashSoPartitioner>());
  out.push_back(std::make_unique<TwoHopForwardPartitioner>());
  out.push_back(std::make_unique<PathBmcPartitioner>());
  out.push_back(std::make_unique<MinEdgeCutPartitioner>());
  return out;
}

TEST(PartitionDataTest, EveryTripleIsStoredSomewhere) {
  LubmConfig cfg;
  cfg.universities = 2;
  RdfGraph g = GenerateLubm(cfg);
  ASSERT_GT(g.NumTriples(), 1000u);

  for (const auto& p : AllPartitioners()) {
    PartitionAssignment pa = p->PartitionData(g, 5);
    ASSERT_EQ(pa.num_nodes, 5) << p->name();
    std::vector<bool> covered(g.NumTriples(), false);
    for (const auto& node : pa.node_triples) {
      for (TripleIdx i : node) {
        ASSERT_LT(i, g.NumTriples());
        covered[i] = true;
      }
    }
    for (std::size_t i = 0; i < covered.size(); ++i) {
      EXPECT_TRUE(covered[i]) << p->name() << " lost triple " << i;
    }
    EXPECT_GE(pa.ReplicationFactor(g.NumTriples()), 1.0) << p->name();
    // Sanity: replication stays bounded for these methods at n=5.
    EXPECT_LE(pa.ReplicationFactor(g.NumTriples()), 5.0) << p->name();
  }
}

// Node stores must be sets: the executor skips dedups on the strength of
// it (DESIGN.md section 13), and Cluster aborts on a repeated triple.
TEST(PartitionDataTest, NoNodeReceivesATripleTwice) {
  LubmConfig cfg;
  cfg.universities = 2;
  RdfGraph g = GenerateLubm(cfg);
  std::vector<std::unique_ptr<Partitioner>> partitioners = AllPartitioners();
  HashSoPartitioner hash;
  std::vector<std::vector<TriplePattern>> hot;
  for (const BenchmarkQuery& bq : AllBenchmarkQueries()) {
    if (bq.name != "L1" && bq.name != "L2") continue;
    Result<ParsedQuery> parsed = ParseSparql(bq.sparql);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    hot.push_back(parsed->patterns);
  }
  ASSERT_EQ(hot.size(), 2u);
  partitioners.push_back(
      std::make_unique<HotQueryPartitioner>(hash, std::move(hot)));

  for (const auto& p : partitioners) {
    for (int n : {1, 5}) {
      PartitionAssignment pa = p->PartitionData(g, n);
      for (std::size_t node = 0; node < pa.node_triples.size(); ++node) {
        std::vector<TripleIdx> idxs = pa.node_triples[node];
        std::sort(idxs.begin(), idxs.end());
        EXPECT_EQ(std::adjacent_find(idxs.begin(), idxs.end()), idxs.end())
            << p->name() << " n=" << n << " node " << node;
      }
    }
  }
}

TEST(PartitionDataTest, LoadStaysRoughlyBalanced) {
  // distribute()'s stated goal (Section II-C) includes load balance.
  // Allow generous skew (semantic methods trade balance for locality),
  // but no node may be empty or hold the majority of the data.
  LubmConfig cfg;
  cfg.universities = 3;
  RdfGraph g = GenerateLubm(cfg);
  for (const auto& p : AllPartitioners()) {
    PartitionAssignment pa = p->PartitionData(g, 5);
    std::size_t total = pa.TotalStored();
    for (const auto& node : pa.node_triples) {
      EXPECT_GT(node.size(), 0u) << p->name();
      EXPECT_LT(node.size(), total * 3 / 4) << p->name();
    }
  }
}

TEST(PartitionDataTest, HashSoCollocatesByEndpoint) {
  LubmConfig cfg;
  cfg.universities = 1;
  RdfGraph g = GenerateLubm(cfg);
  HashSoPartitioner hash;
  PartitionAssignment pa = hash.PartitionData(g, 4);
  // Every triple appears on hash(s) and hash(o).
  for (int node = 0; node < 4; ++node) {
    for (TripleIdx i : pa.node_triples[node]) {
      const Triple& t = g.triples()[i];
      EXPECT_TRUE(HashToNode(t.s, 4) == node || HashToNode(t.o, 4) == node);
    }
  }
}

TEST(MlqTest, HashSoExample7) {
  // Example 7: under hash partitioning, the MLQ at ?a of the Figure 1
  // query is {tp1, tp2, tp3, tp7}.
  JoinGraph jg(Figure1Query());
  QueryGraph qg(jg);
  HashSoPartitioner hash;
  int va = qg.VertexOfVar(jg.FindVar("a"));
  TpSet mlq = hash.MaximalLocalQuery(qg, va);
  TpSet expected;
  expected.Add(0);
  expected.Add(1);
  expected.Add(2);
  expected.Add(6);
  EXPECT_EQ(mlq, expected);
}

TEST(MlqTest, PathBmcExample5) {
  // Example 5: under path partitioning, the MLQ at ?b is
  // {tp1, tp3, tp4, tp5, tp7}.
  JoinGraph jg(Figure1Query());
  QueryGraph qg(jg);
  PathBmcPartitioner path;
  int vb = qg.VertexOfVar(jg.FindVar("b"));
  TpSet mlq = path.MaximalLocalQuery(qg, vb);
  TpSet expected;
  expected.Add(0);
  expected.Add(2);
  expected.Add(3);
  expected.Add(4);
  expected.Add(6);
  EXPECT_EQ(mlq, expected);
}

TEST(MlqTest, TwoHopIsBetweenHashAndPath) {
  JoinGraph jg(Figure1Query());
  QueryGraph qg(jg);
  TwoHopForwardPartitioner twof;
  PathBmcPartitioner path;
  int vb = qg.VertexOfVar(jg.FindVar("b"));
  TpSet two = twof.MaximalLocalQuery(qg, vb);
  TpSet all = path.MaximalLocalQuery(qg, vb);
  EXPECT_TRUE(two.IsSubsetOf(all));
  // 2 hops from ?b: tp1, tp5 (hop 1) + tp3, tp7 (hop 2), not tp4.
  EXPECT_EQ(two.Count(), 4);
  EXPECT_FALSE(two.Contains(3));
}

TEST(LocalQueryIndexTest, SubqueriesOfLocalAreLocal) {
  // Lemma 4 via Example 7: every subquery of {tp1, tp2, tp3, tp7} is
  // local under hash partitioning.
  JoinGraph jg(Figure1Query());
  QueryGraph qg(jg);
  HashSoPartitioner hash;
  LocalQueryIndex index(qg, hash);

  TpSet mlq_a;
  mlq_a.Add(0);
  mlq_a.Add(1);
  mlq_a.Add(2);
  mlq_a.Add(6);
  for (std::uint64_t sub = mlq_a.bits(); sub != 0;
       sub = (sub - 1) & mlq_a.bits()) {
    EXPECT_TRUE(index.IsLocal(TpSet(sub)));
  }
  // The whole query is not local under hash partitioning.
  EXPECT_FALSE(index.IsLocal(jg.AllTps()));
  // {tp3, tp4} shares ?e => local; {tp4, tp5} shares nothing => not.
  TpSet e34;
  e34.Add(2);
  e34.Add(3);
  EXPECT_TRUE(index.IsLocal(e34));
  TpSet e45;
  e45.Add(3);
  e45.Add(4);
  EXPECT_FALSE(index.IsLocal(e45));
}

TEST(LocalQueryIndexTest, SingletonsAlwaysLocal) {
  JoinGraph jg(Figure1Query());
  QueryGraph qg(jg);
  for (const auto& p : AllPartitioners()) {
    LocalQueryIndex index(qg, *p);
    for (int tp = 0; tp < jg.num_tps(); ++tp) {
      EXPECT_TRUE(index.IsLocal(TpSet::Singleton(tp))) << p->name();
    }
  }
  LocalQueryIndex none = LocalQueryIndex::None(jg.num_tps());
  EXPECT_TRUE(none.IsLocal(TpSet::Singleton(0)));
  TpSet pair;
  pair.Add(0);
  pair.Add(1);
  EXPECT_FALSE(none.IsLocal(pair));
}

TEST(LocalQueryIndexTest, PathBmcMakesWholeQueriesLocal) {
  // All benchmark queries are local under Path-BMC in the paper
  // (Section V-B); check the pattern on Figure 1: the whole query is
  // reachable from ?b and ?c jointly but not from one vertex, so it is
  // NOT local; however the L2-style chain is.
  JoinGraph chain_jg({testing::Tp("?x", "worksFor", "?y"),
                      testing::Tp("?y", "subOrg", "u")});
  QueryGraph chain_qg(chain_jg);
  PathBmcPartitioner path;
  LocalQueryIndex index(chain_qg, path);
  EXPECT_TRUE(index.IsLocal(chain_jg.AllTps()));
}

TEST(LocalQueryIndexTest, MinimizeDropsDominatedMlqs) {
  std::vector<TpSet> mlqs;
  TpSet big;
  big.Add(0);
  big.Add(1);
  big.Add(2);
  TpSet small;
  small.Add(1);
  mlqs.push_back(small);
  mlqs.push_back(big);
  mlqs.push_back(big);
  LocalQueryIndex index(std::move(mlqs));
  EXPECT_EQ(index.mlqs().size(), 1u);
  EXPECT_TRUE(index.IsLocal(small));
  EXPECT_TRUE(index.IsLocal(big));
}

}  // namespace
}  // namespace parqo
