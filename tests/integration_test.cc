// End-to-end integration: generate data, parse the benchmark queries,
// partition, optimize with every algorithm, execute on the simulated
// cluster, and require that (a) every plan validates, (b) every
// algorithm/partitioning combination returns exactly the same result set,
// and (c) that set equals the reference evaluator's matches over the
// unpartitioned graph. This pins down the whole pipeline of the paper's
// Section V-B experiment at test scale.

#include <gtest/gtest.h>

#include <memory>

#include "exec/cluster.h"
#include "exec/executor.h"
#include "optimizer/plan_validator.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "partition/min_edge_cut.h"
#include "partition/path_bmc.h"
#include "partition/two_hop.h"
#include "sparql/parser.h"
#include "tests/test_util.h"
#include "workload/benchmark_queries.h"
#include "workload/lubm.h"
#include "workload/uniprot.h"

namespace parqo {
namespace {

constexpr int kNodes = 4;

const RdfGraph& LubmGraph() {
  // parqo-lint: allow(naked-new) leaked cached dataset
  static const RdfGraph& g = *new RdfGraph([] {
    LubmConfig cfg;
    cfg.universities = 2;
    return GenerateLubm(cfg);
  }());
  return g;
}

const RdfGraph& UniprotGraph() {
  // parqo-lint: allow(naked-new) leaked cached dataset
  static const RdfGraph& g = *new RdfGraph([] {
    UniprotConfig cfg;
    cfg.proteins = 400;
    return GenerateUniprot(cfg);
  }());
  return g;
}

// Normalizes an executor result to reference-evaluator row format.
std::set<std::vector<TermId>> Normalize(const BindingTable& t,
                                        const JoinGraph& jg) {
  std::set<std::vector<TermId>> rows;
  for (std::size_t r = 0; r < t.NumRows(); ++r) {
    std::vector<TermId> row;
    for (VarId v = 0; v < jg.num_vars(); ++v) {
      int c = t.ColumnOf(v);
      row.push_back(c < 0 ? kInvalidTermId : t.At(r, c));
    }
    rows.insert(row);
  }
  return rows;
}

class IntegrationTest : public ::testing::TestWithParam<BenchmarkQuery> {};

TEST_P(IntegrationTest, AllAlgorithmsAndPartitioningsAgree) {
  const BenchmarkQuery& bq = GetParam();
  const RdfGraph& graph = bq.lubm ? LubmGraph() : UniprotGraph();

  auto parsed = ParseSparql(bq.sparql);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  JoinGraph reference_jg(parsed->patterns);
  std::set<std::vector<TermId>> expected =
      testing::ReferenceEvaluate(reference_jg, graph);

  OptimizeOptions options;
  options.cost_params.num_nodes = kNodes;
  options.timeout_seconds = 60;

  HashSoPartitioner hash;
  TwoHopForwardPartitioner two_hop;
  PathBmcPartitioner path;
  MinEdgeCutPartitioner min_cut;

  struct Combo {
    const Partitioner* partitioner;
    Algorithm algorithm;
  };
  std::vector<Combo> combos;
  for (Algorithm a :
       {Algorithm::kTdCmd, Algorithm::kTdCmdp, Algorithm::kHgrTdCmd,
        Algorithm::kTdAuto, Algorithm::kMsc, Algorithm::kDpBushy}) {
    combos.push_back({&hash, a});
  }
  // Only the partition-aware optimizer runs on the other methods
  // (Section V-B).
  combos.push_back({&two_hop, Algorithm::kTdAuto});
  combos.push_back({&path, Algorithm::kTdAuto});
  combos.push_back({&min_cut, Algorithm::kTdAuto});

  double tdcmd_cost = -1;
  for (const Combo& combo : combos) {
    SCOPED_TRACE(ToString(combo.algorithm) + " on " +
                 combo.partitioner->name());
    PreparedQuery pq(parsed->patterns, *combo.partitioner,
                     StatsFromData(graph));
    OptimizeResult r = Optimize(combo.algorithm, pq.inputs(), options);
    ASSERT_NE(r.plan, nullptr);
    ASSERT_TRUE(PlanValidator(pq.join_graph(), &pq.local_index())
                    .ValidatePlan(*r.plan)
                    .ok());
    if (combo.algorithm == Algorithm::kTdCmd) {
      tdcmd_cost = r.plan->total_cost;
    } else if (combo.partitioner == &hash && tdcmd_cost >= 0) {
      EXPECT_GE(r.plan->total_cost, tdcmd_cost - 1e-9);
    }

    PartitionAssignment assignment =
        combo.partitioner->PartitionData(graph, kNodes);
    Cluster cluster(graph, assignment);
    Executor executor(cluster, pq.join_graph(), options.cost_params);
    ExecMetrics metrics;
    auto result = executor.Execute(*r.plan, &metrics);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(Normalize(*result, pq.join_graph()), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Benchmark, IntegrationTest, ::testing::ValuesIn(AllBenchmarkQueries()),
    [](const ::testing::TestParamInfo<BenchmarkQuery>& param_info) {
      return param_info.param.name;
    });

TEST(IntegrationSmokeTest, SomeQueriesHaveResults) {
  // Guard against a silently empty benchmark: the cheap star/chain
  // queries must return rows at this scale.
  for (const char* name : {"L1", "L2", "L4", "U5"}) {
    const BenchmarkQuery& bq = GetBenchmarkQuery(name);
    const RdfGraph& graph = bq.lubm ? LubmGraph() : UniprotGraph();
    auto parsed = ParseSparql(bq.sparql);
    ASSERT_TRUE(parsed.ok());
    JoinGraph jg(parsed->patterns);
    EXPECT_FALSE(testing::ReferenceEvaluate(jg, graph).empty()) << name;
  }
}

}  // namespace
}  // namespace parqo
