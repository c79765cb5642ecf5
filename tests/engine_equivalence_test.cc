// Golden equivalence sweep for the executor (DESIGN.md sections 13 and
// 17): every benchmark query, planned by all seven algorithms, must
// return the distinct MatchBgp bindings as a multiset (a duplicated row
// fails), and the serial and parallel runs must produce BIT-IDENTICAL
// BindingTables (schema, rows, row order; operator==, not set
// comparison) with identical metrics. Under a seeded fault plan, two
// runs replay to identical tables or fail with the same typed status,
// because the fault probe sequence (one BeginNodeOp per partition per
// operator, one DeliverShipment per batch) depends only on the plan.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "exec/cluster.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "plan/plan.h"
#include "sparql/parser.h"
#include "stats/data_stats.h"
#include "tests/test_util.h"
#include "workload/benchmark_queries.h"
#include "workload/lubm.h"
#include "workload/uniprot.h"

namespace parqo {
namespace {

constexpr int kNodes = 4;

const std::vector<Algorithm> kAllAlgorithms{
    Algorithm::kTdCmd,  Algorithm::kTdCmdp,  Algorithm::kHgrTdCmd,
    Algorithm::kTdAuto, Algorithm::kMsc,     Algorithm::kDpBushy,
    Algorithm::kBinaryDp};

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

// Metrics two runs of one plan must agree on exactly: every field is a
// function of the (identical) intermediate tables.
void ExpectSameMetrics(const ExecMetrics& a, const ExecMetrics& b) {
  EXPECT_EQ(a.measured_cost, b.measured_cost);
  EXPECT_EQ(a.total_work, b.total_work);
  EXPECT_EQ(a.rows_scanned, b.rows_scanned);
  EXPECT_EQ(a.rows_transferred, b.rows_transferred);
  EXPECT_EQ(a.bytes_shipped, b.bytes_shipped);
  EXPECT_EQ(a.distributed_joins, b.distributed_joins);
  EXPECT_EQ(a.merge_joins, b.merge_joins);
  EXPECT_EQ(a.result_rows, b.result_rows);
  EXPECT_EQ(a.node_rows_scanned, b.node_rows_scanned);
  EXPECT_EQ(a.node_rows_received, b.node_rows_received);
  EXPECT_EQ(a.node_rows_joined, b.node_rows_joined);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].op, b.edges[i].op);
    EXPECT_EQ(a.edges[i].rows, b.edges[i].rows);
    EXPECT_EQ(a.edges[i].bytes, b.edges[i].bytes);
  }
}

class EngineEquivalenceTest : public ::testing::TestWithParam<BenchmarkQuery> {
 protected:
  void SetUp() override {
    const BenchmarkQuery& bq = GetParam();
    graph_ = &(bq.lubm ? LubmGraph() : UniprotGraph());
    auto parsed = ParseSparql(bq.sparql);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    prepared_ = std::make_unique<PreparedQuery>(parsed->patterns, hash_,
                                                StatsFromData(*graph_));
    assignment_ = hash_.PartitionData(*graph_, kNodes);
    cluster_ = std::make_unique<Cluster>(*graph_, assignment_);
    options_.cost_params.num_nodes = kNodes;
    options_.timeout_seconds = 60;
  }

  PlanNodePtr Plan(Algorithm algorithm) {
    OptimizeResult r = Optimize(algorithm, prepared_->inputs(), options_);
    return std::move(r.plan);
  }

  HashSoPartitioner hash_;
  const RdfGraph* graph_ = nullptr;
  std::unique_ptr<PreparedQuery> prepared_;
  PartitionAssignment assignment_;
  std::unique_ptr<Cluster> cluster_;
  OptimizeOptions options_;
};

TEST_P(EngineEquivalenceTest, AllAlgorithmsSerialAndParallel) {
  const JoinGraph& jg = prepared_->join_graph();
  const std::vector<std::vector<TermId>> truth =
      testing::MatchRows(jg, *graph_);
  for (Algorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(ToString(algorithm));
    PlanNodePtr plan = Plan(algorithm);
    ASSERT_NE(plan, nullptr);
    Executor serial(*cluster_, jg, options_.cost_params);
    Executor parallel(*cluster_, jg, options_.cost_params,
                      /*parallel_nodes=*/true);
    ExecMetrics ms, mp;
    auto rs = serial.Execute(*plan, &ms);
    auto rp = parallel.Execute(*plan, &mp);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ASSERT_TRUE(rp.ok()) << rp.status().ToString();
    EXPECT_EQ(testing::SortedRows(*rs, jg), truth);
    EXPECT_TRUE(*rs == *rp) << "serial " << rs->NumRows()
                            << " rows vs parallel " << rp->NumRows();
    ExpectSameMetrics(ms, mp);
  }
}

TEST_P(EngineEquivalenceTest, FaultSeedsProduceIdenticalOutcomes) {
  PlanNodePtr plan = Plan(Algorithm::kTdAuto);
  ASSERT_NE(plan, nullptr);
  const JoinGraph& jg = prepared_->join_graph();
  RetryPolicy retry;
  retry.max_attempts = 6;

  FaultPlanConfig config;
  config.crash_probability = 0.3;
  config.slow_probability = 0.25;
  config.slow_seconds = 1e-4;
  config.drop_probability = 0.1;

  // The CI chaos seeds; a fresh FaultPlan per run replays the same
  // schedule.
  for (std::uint64_t seed : {2017ull, 31337ull, 987654321ull}) {
    SCOPED_TRACE(seed);
    auto run = [&](ExecMetrics* m) {
      FaultPlan fault(seed, kNodes, config);
      Executor exec(*cluster_, jg, options_.cost_params,
                    /*parallel_nodes=*/false, retry);
      FaultScope scope(&fault);
      return exec.Execute(*plan, m);
    };
    ExecMetrics ma, mb;
    Result<BindingTable> ra = run(&ma);
    Result<BindingTable> rb = run(&mb);
    ASSERT_EQ(ra.ok(), rb.ok()) << "first: " << ra.status().ToString()
                                << " replay: " << rb.status().ToString();
    if (ra.ok()) {
      EXPECT_EQ(testing::SortedRows(*ra, jg), testing::MatchRows(jg, *graph_));
      EXPECT_TRUE(*ra == *rb);
      ExpectSameMetrics(ma, mb);
      EXPECT_EQ(ma.recovery_attempts, mb.recovery_attempts);
      EXPECT_EQ(ma.rows_reshipped, mb.rows_reshipped);
      EXPECT_EQ(ma.degraded_nodes, mb.degraded_nodes);
    } else {
      EXPECT_EQ(ra.status().code(), rb.status().code());
      EXPECT_TRUE(ma.failed);
      EXPECT_TRUE(mb.failed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Benchmark, EngineEquivalenceTest,
    ::testing::ValuesIn(AllBenchmarkQueries()),
    [](const ::testing::TestParamInfo<BenchmarkQuery>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace parqo
