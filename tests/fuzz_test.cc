// Randomized end-to-end property test ("poor man's fuzzing"): random
// small RDF graphs, queries sampled by random walks over the data (so
// results are non-trivially non-empty), optimized by every algorithm and
// executed under every partitioning — all runs must reproduce MatchBgp's
// distinct bindings exactly, as a multiset. This exercises the full
// parser-less pipeline: statistics, locality, enumeration, costing,
// partitioning, and the distributed operators, on structures no
// hand-written test would cover.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "exec/cluster.h"
#include "exec/executor.h"
#include "optimizer/plan_validator.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "partition/min_edge_cut.h"
#include "partition/path_bmc.h"
#include "partition/two_hop.h"
#include "tests/test_util.h"

namespace parqo {
namespace {

// A random labeled graph: `n` entities, `p` predicates, `m` triples, with
// skew so joins have fan-out.
RdfGraph RandomGraph(Rng& rng, int n, int p, int m) {
  Dictionary dict;
  std::vector<TermId> entities, predicates;
  // Appends, not chained operator+: GCC 12 -Wrestrict false positive
  // (PR105651) under -O2.
  for (int i = 0; i < n; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    entities.push_back(dict.EncodeIri(name));
  }
  for (int i = 0; i < p; ++i) {
    std::string name = "p";
    name += std::to_string(i);
    predicates.push_back(dict.EncodeIri(name));
  }
  std::vector<Triple> triples;
  for (int i = 0; i < m; ++i) {
    TermId s = entities[rng.Skewed(n)];
    TermId o = entities[rng.Uniform(0, n - 1)];
    TermId pr = predicates[rng.Skewed(p)];
    triples.push_back(Triple{s, pr, o});
  }
  return RdfGraph(std::move(dict), std::move(triples));
}

// Samples a query with 2..6 patterns by walking the data graph, so the
// query has at least one match. Endpoints become variables; with small
// probability a leaf keeps its constant.
std::vector<TriplePattern> SampleQuery(const RdfGraph& g, Rng& rng) {
  const auto& triples = g.triples();
  const int size = static_cast<int>(rng.Uniform(2, 6));

  std::vector<const Triple*> chosen;
  std::vector<TermId> frontier;
  const Triple& seed =
      triples[rng.Uniform(0, static_cast<std::int64_t>(triples.size()) - 1)];
  chosen.push_back(&seed);
  frontier.push_back(seed.s);
  frontier.push_back(seed.o);

  int guard = 0;
  while (static_cast<int>(chosen.size()) < size && ++guard < 200) {
    TermId v = frontier[rng.Uniform(
        0, static_cast<std::int64_t>(frontier.size()) - 1)];
    auto out = g.OutEdges(v);
    auto in = g.InEdges(v);
    if (out.empty() && in.empty()) continue;
    bool use_out = !out.empty() && (in.empty() || rng.Bernoulli(0.5));
    TripleIdx e = use_out
                      ? out[rng.Uniform(
                            0, static_cast<std::int64_t>(out.size()) - 1)]
                      : in[rng.Uniform(
                            0, static_cast<std::int64_t>(in.size()) - 1)];
    const Triple* t = &triples[e];
    bool dup = false;
    for (const Triple* c : chosen) {
      if (c == t) dup = true;
    }
    if (dup) continue;
    chosen.push_back(t);
    frontier.push_back(t->s);
    frontier.push_back(t->o);
  }

  // Name variables by the entity they replace: shared entities become
  // shared (join) variables, exactly like a match in reverse.
  const Dictionary& dict = g.dict();
  auto var_or_const = [&](TermId id) -> PatternTerm {
    if (rng.Bernoulli(0.15)) {
      return PatternTerm::Const(dict.Decode(id));
    }
    std::string name = "v";
    name += std::to_string(id);
    return PatternTerm::Var(name);
  };
  // Decide variable/constant once per entity for consistency.
  std::vector<std::pair<TermId, PatternTerm>> mapping;
  auto term_for = [&](TermId id) {
    for (auto& [k, v] : mapping) {
      if (k == id) return v;
    }
    mapping.emplace_back(id, var_or_const(id));
    return mapping.back().second;
  };

  std::vector<TriplePattern> patterns;
  for (const Triple* t : chosen) {
    TriplePattern tp;
    tp.s = term_for(t->s);
    tp.p = PatternTerm::Const(dict.Decode(t->p));
    tp.o = term_for(t->o);
    patterns.push_back(std::move(tp));
  }
  return patterns;
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, AllPipelinesAgreeWithReference) {
  Rng rng(GetParam());
  RdfGraph graph = RandomGraph(rng, /*n=*/60, /*p=*/6, /*m=*/400);

  HashSoPartitioner hash;
  TwoHopForwardPartitioner two_hop;
  PathBmcPartitioner path;
  MinEdgeCutPartitioner min_cut;

  for (int iteration = 0; iteration < 6; ++iteration) {
    std::vector<TriplePattern> patterns = SampleQuery(graph, rng);
    JoinGraph query_jg(patterns);
    if (!query_jg.IsConnected(query_jg.AllTps())) continue;
    SCOPED_TRACE("iteration " + std::to_string(iteration));

    // Reference rows from the single-machine matcher. Executions are
    // compared as multisets, so a duplicated result row fails.
    const std::vector<std::vector<TermId>> expected =
        testing::MatchRows(query_jg, graph);
    ASSERT_FALSE(expected.empty());  // sampled from a real match

    struct Combo {
      const Partitioner* partitioner;
      Algorithm algorithm;
    };
    std::vector<Combo> combos{
        {&hash, Algorithm::kTdCmd},    {&hash, Algorithm::kTdCmdp},
        {&hash, Algorithm::kHgrTdCmd}, {&hash, Algorithm::kMsc},
        {&hash, Algorithm::kDpBushy},  {&hash, Algorithm::kBinaryDp},
        {&two_hop, Algorithm::kTdAuto}, {&path, Algorithm::kTdAuto},
        {&min_cut, Algorithm::kTdAuto},
    };
    for (const Combo& combo : combos) {
      SCOPED_TRACE(ToString(combo.algorithm) + " on " +
                   combo.partitioner->name());
      PreparedQuery prepared(patterns, *combo.partitioner,
                             StatsFromData(graph));
      OptimizeOptions options;
      options.timeout_seconds = 30;
      options.cost_params.num_nodes = 3;
      OptimizeResult r =
          Optimize(combo.algorithm, prepared.inputs(), options);
      ASSERT_NE(r.plan, nullptr);
      ASSERT_TRUE(
          PlanValidator(prepared.join_graph(), &prepared.local_index())
              .ValidatePlan(*r.plan)
              .ok());

      Cluster cluster(graph, combo.partitioner->PartitionData(graph, 3));
      Executor executor(cluster, prepared.join_graph(),
                        options.cost_params);
      auto result = executor.Execute(*r.plan, nullptr);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(testing::SortedRows(*result, prepared.join_graph()),
                expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace parqo
