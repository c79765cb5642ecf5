// Chaos harness (DESIGN.md section 11): execute the benchmark workload and
// hand-built per-operator plans under seeded fault plans — node crashes,
// stragglers, dropped shipments — across both executor paths, and assert
// the chaos invariant: every run either returns rows bit-identical to the
// fault-free baseline or a clean typed Status with zeroed metrics. Never a
// silently wrong result, never a hang (retries are bounded, ctest enforces
// the wall clock).
//
// The workload sweep's fault schedules derive from PARQO_CHAOS_SEED so CI
// can run distinct seeds; the targeted operator tests pin their own seeds
// to keep every assertion deterministic. The deadline tests at the bottom
// cover the optimizer half of the failure model: a tiny wall-clock budget
// must still yield a valid executable plan (degraded or MSC fallback),
// with the cause recorded.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/stopwatch.h"
#include "exec/cluster.h"
#include "exec/executor.h"
#include "exec/health.h"
#include "optimizer/plan_validator.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "plan/plan.h"
#include "rdf/ntriples.h"
#include "sparql/parser.h"
#include "stats/data_stats.h"
#include "tests/optimizer_test_util.h"
#include "tests/test_util.h"
#include "workload/benchmark_queries.h"
#include "workload/lubm.h"
#include "workload/random_query.h"
#include "workload/uniprot.h"

namespace parqo {
namespace {

using testing::Tp;

constexpr int kNodes = 4;

// CI runs the suite under several seeds (see .github/workflows/ci.yml);
// every value must uphold the chaos invariant.
std::uint64_t ChaosSeed() {
  const char* env = std::getenv("PARQO_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 2017;
  return std::strtoull(env, nullptr, 10);
}

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

std::uint64_t Sum(const std::vector<std::uint64_t>& v) {
  std::uint64_t s = 0;
  for (std::uint64_t x : v) s += x;
  return s;
}

// The failure half of the chaos invariant: a typed error and metrics that
// cannot leak partial per-operator sums (satellite fix: the executor zeroes
// everything it counted before the fault surfaced).
void ExpectCleanFailure(const Status& status, const ExecMetrics& m) {
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  EXPECT_TRUE(m.failed);
  EXPECT_EQ(m.rows_scanned, 0u);
  EXPECT_EQ(m.rows_transferred, 0u);
  EXPECT_EQ(m.bytes_shipped, 0u);
  EXPECT_EQ(m.distributed_joins, 0u);
  EXPECT_EQ(m.result_rows, 0u);
  EXPECT_EQ(m.dedup_rows, 0u);
  EXPECT_EQ(m.recovery_attempts, 0u);
  EXPECT_EQ(m.rows_reshipped, 0u);
  EXPECT_EQ(m.measured_cost, 0.0);
  EXPECT_EQ(m.total_work, 0.0);
  EXPECT_TRUE(m.edges.empty());
  EXPECT_TRUE(m.degraded_nodes.empty());
  EXPECT_EQ(Sum(m.node_rows_scanned), 0u);
  EXPECT_EQ(Sum(m.node_rows_received), 0u);
  EXPECT_EQ(Sum(m.node_rows_joined), 0u);
}

// The success half: rows bit-identical to the fault-free baseline and the
// per-node reconciliation invariant intact (scalars count only successful
// deliveries; wasted traffic lives in rows_reshipped).
void ExpectExactRecovery(const BindingTable& rows, const ExecMetrics& m,
                         const std::set<std::vector<TermId>>& expected,
                         const JoinGraph& jg) {
  EXPECT_FALSE(m.failed);
  EXPECT_EQ(Normalize(rows, jg), expected);
  EXPECT_EQ(Sum(m.node_rows_received), m.rows_transferred);
  EXPECT_EQ(Sum(m.node_rows_scanned), m.rows_scanned);
}

// ---------------------------------------------------------------------------
// Workload sweep: every benchmark query under randomized-but-seeded fault
// plans, serial and parallel executors.

class ChaosQueryTest : public ::testing::TestWithParam<BenchmarkQuery> {};

TEST_P(ChaosQueryTest, FaultedRunsMatchBaselineOrFailCleanly) {
  const BenchmarkQuery& bq = GetParam();
  const RdfGraph& graph = bq.lubm ? LubmGraph() : UniprotGraph();

  auto parsed = ParseSparql(bq.sparql);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  OptimizeOptions options;
  options.cost_params.num_nodes = kNodes;
  options.deadline = Deadline::AfterSeconds(60);
  HashSoPartitioner hash;
  PreparedQuery pq(parsed->patterns, hash, StatsFromData(graph));
  OptimizeResult r = Optimize(Algorithm::kTdAuto, pq.inputs(), options);
  ASSERT_NE(r.plan, nullptr);

  PartitionAssignment assignment = hash.PartitionData(graph, kNodes);
  Cluster cluster(graph, assignment);

  RetryPolicy retry;
  retry.max_attempts = 6;

  Executor baseline_exec(cluster, pq.join_graph(), options.cost_params,
                         /*parallel_nodes=*/false, retry);
  ExecMetrics base;
  auto baseline = baseline_exec.Execute(*r.plan, &base);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  std::set<std::vector<TermId>> expected =
      Normalize(*baseline, pq.join_graph());
  EXPECT_EQ(base.recovery_attempts, 0u);  // no scope active
  EXPECT_TRUE(base.degraded_nodes.empty());

  struct Scenario {
    const char* name;
    FaultPlanConfig config;
  };
  std::vector<Scenario> scenarios(3);
  scenarios[0].name = "crashes";
  scenarios[0].config.crash_probability = 0.5;
  scenarios[1].name = "drops";
  scenarios[1].config.drop_probability = 0.2;
  scenarios[2].name = "mixed";
  scenarios[2].config.crash_probability = 0.3;
  scenarios[2].config.slow_probability = 0.25;
  scenarios[2].config.slow_seconds = 1e-4;
  scenarios[2].config.drop_probability = 0.1;

  const std::uint64_t seed = ChaosSeed();
  for (int variant = 0; variant < 2; ++variant) {
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      for (bool parallel : {false, true}) {
        SCOPED_TRACE(std::string(scenarios[s].name) + " variant " +
                     std::to_string(variant) +
                     (parallel ? " parallel" : " serial"));
        FaultPlan fault(seed * 1000003 + variant * 31 + s, kNodes,
                        scenarios[s].config);
        Executor exec(cluster, pq.join_graph(), options.cost_params,
                      parallel, retry);
        ExecMetrics m;
        Result<BindingTable> result = [&] {
          FaultScope scope(&fault);
          return exec.Execute(*r.plan, &m);
        }();
        if (result.ok()) {
          ExpectExactRecovery(*result, m, expected, pq.join_graph());
          EXPECT_EQ(m.degraded_nodes.size(), fault.crashes_fired());
        } else {
          ExpectCleanFailure(result.status(), m);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Benchmark, ChaosQueryTest, ::testing::ValuesIn(AllBenchmarkQueries()),
    [](const ::testing::TestParamInfo<BenchmarkQuery>& param_info) {
      return param_info.param.name;
    });

// ---------------------------------------------------------------------------
// Targeted per-operator fault tests on a tiny hand-made cluster. Fixed
// seeds keep every assertion deterministic.

class ChaosExecutorTest : public ::testing::Test {
 protected:
  ChaosExecutorTest() {
    auto g = ParseNTriplesString(
        "<s1> <worksFor> <d1> .\n"
        "<s2> <worksFor> <d1> .\n"
        "<s3> <worksFor> <d2> .\n"
        "<d1> <subOrg> <u1> .\n"
        "<d2> <subOrg> <u1> .\n"
        "<d2> <subOrg> <u2> .\n"
        "<s1> <likes> <s2> .\n"
        "<s2> <likes> <s3> .\n");
    graph_ = std::make_unique<RdfGraph>(std::move(*g));
    jg_ = std::make_unique<JoinGraph>(std::vector<TriplePattern>{
        Tp("?x", "worksFor", "?y"), Tp("?y", "subOrg", "?u"),
        Tp("?x", "likes", "?z")});
    cluster_ = std::make_unique<Cluster>(*graph_,
                                         hash_.PartitionData(*graph_, 3));
    estimator_ = std::make_unique<CardinalityEstimator>(
        *jg_, ComputeStatisticsFromGraph(*jg_, *graph_));
    builder_ = std::make_unique<PlanBuilder>(*estimator_,
                                             CostModel(CostParams{}));
  }

  PlanNodePtr RepartitionPlan() {
    return builder_->Join(
        JoinMethod::kRepartition, jg_->FindVar("y"),
        {builder_->Join(JoinMethod::kRepartition, jg_->FindVar("x"),
                        {builder_->Scan(0), builder_->Scan(2)}),
         builder_->Scan(1)});
  }

  PlanNodePtr BroadcastPlan() {
    return builder_->Join(
        JoinMethod::kBroadcast, jg_->FindVar("y"),
        {builder_->Join(JoinMethod::kBroadcast, jg_->FindVar("x"),
                        {builder_->Scan(0), builder_->Scan(2)}),
         builder_->Scan(1)});
  }

  std::set<std::vector<TermId>> Expected() {
    return testing::ReferenceEvaluate(*jg_, *graph_);
  }

  Result<BindingTable> RunUnder(FaultPlan& fault, const PlanNode& plan,
                                ExecMetrics* m,
                                RetryPolicy retry = RetryPolicy{}) {
    Executor exec(*cluster_, *jg_, CostParams{}, /*parallel_nodes=*/false,
                  retry);
    FaultScope scope(&fault);
    return exec.Execute(plan, m);
  }

  HashSoPartitioner hash_;
  std::unique_ptr<RdfGraph> graph_;
  std::unique_ptr<JoinGraph> jg_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<CardinalityEstimator> estimator_;
  std::unique_ptr<PlanBuilder> builder_;
};

TEST_F(ChaosExecutorTest, CrashDuringScanRecovers) {
  PlanNodePtr plan = RepartitionPlan();
  FaultPlan fault(3);
  fault.CrashNodeAtOp(1, 0);  // dies on its very first scan
  ExecMetrics m;
  auto result = RunUnder(fault, *plan, &m);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectExactRecovery(*result, m, Expected(), *jg_);
  EXPECT_EQ(fault.crashes_fired(), 1u);
  ASSERT_EQ(m.degraded_nodes.size(), 1u);
  EXPECT_EQ(m.degraded_nodes[0], 1);
  EXPECT_GE(m.recovery_attempts, 1u);
  EXPECT_GE(m.operators_reexecuted, 1u);
}

TEST_F(ChaosExecutorTest, CrashDuringFinalJoinRecovers) {
  // Serial op sequence per node: scan, scan, join, scan, join — ordinal 4
  // lands inside the last repartition join.
  PlanNodePtr plan = RepartitionPlan();
  FaultPlan fault(3);
  fault.CrashNodeAtOp(2, 4);
  ExecMetrics m;
  auto result = RunUnder(fault, *plan, &m);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectExactRecovery(*result, m, Expected(), *jg_);
  ASSERT_EQ(m.degraded_nodes.size(), 1u);
  EXPECT_EQ(m.degraded_nodes[0], 2);
  EXPECT_GE(m.operators_reexecuted, 1u);
}

TEST_F(ChaosExecutorTest, CrashDuringBroadcastJoinRecovers) {
  PlanNodePtr plan = BroadcastPlan();
  FaultPlan fault(3);
  fault.CrashNodeAtOp(0, 2);  // after its two scans: mid broadcast join
  ExecMetrics m;
  auto result = RunUnder(fault, *plan, &m);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectExactRecovery(*result, m, Expected(), *jg_);
  ASSERT_EQ(m.degraded_nodes.size(), 1u);
  EXPECT_EQ(m.degraded_nodes[0], 0);
}

TEST_F(ChaosExecutorTest, CrashDuringLocalJoinRecovers) {
  // {tp0, tp2} share ?x under Hash-SO, so the local join is correct.
  JoinGraph star(std::vector<TriplePattern>{Tp("?x", "worksFor", "?y"),
                                            Tp("?x", "likes", "?z")});
  CardinalityEstimator est(star, ComputeStatisticsFromGraph(star, *graph_));
  PlanBuilder builder(est, CostModel(CostParams{}));
  PlanNodePtr plan = builder.LocalJoinAll(TpSet::FullSet(2));

  FaultPlan fault(3);
  fault.CrashNodeAtOp(0, 2);  // scan, scan, then dies mid local join
  Executor exec(*cluster_, star, CostParams{});
  ExecMetrics m;
  Result<BindingTable> result = [&] {
    FaultScope scope(&fault);
    return exec.Execute(*plan, &m);
  }();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Normalize(*result, star),
            testing::ReferenceEvaluate(star, *graph_));
  EXPECT_EQ(m.rows_transferred, 0u);  // recovery ships nothing for locals
  ASSERT_EQ(m.degraded_nodes.size(), 1u);
  EXPECT_EQ(m.degraded_nodes[0], 0);
  EXPECT_GE(m.operators_reexecuted, 1u);
}

TEST_F(ChaosExecutorTest, DroppedShipmentsAreReshippedExactly) {
  PlanNodePtr plan = BroadcastPlan();
  FaultPlan fault(3);
  fault.DropShipments(0.5, /*seed=*/42);
  RetryPolicy retry;
  retry.max_attempts = 32;  // enough budget that p=0.5 cannot exhaust it
  ExecMetrics m;
  auto result = RunUnder(fault, *plan, &m, retry);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectExactRecovery(*result, m, Expected(), *jg_);
  EXPECT_GT(fault.drops_fired(), 0u);
  EXPECT_EQ(m.shipments_dropped, fault.drops_fired());
  EXPECT_GT(m.rows_reshipped, 0u);
  EXPECT_TRUE(m.degraded_nodes.empty());  // drops degrade no node
}

TEST_F(ChaosExecutorTest, RepartitionDropsReconcileTraffic) {
  PlanNodePtr plan = RepartitionPlan();
  FaultPlan fault(3);
  fault.DropShipments(0.5, /*seed=*/7);
  RetryPolicy retry;
  retry.max_attempts = 32;
  ExecMetrics m;
  auto result = RunUnder(fault, *plan, &m, retry);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectExactRecovery(*result, m, Expected(), *jg_);
  EXPECT_GT(fault.drops_fired(), 0u);
}

TEST_F(ChaosExecutorTest, TotalShipmentLossReturnsTypedError) {
  // Every delivery fails: the retry budget must exhaust into a typed
  // kUnavailable with zeroed metrics — scans had already counted rows,
  // and none of that partial state may leak (satellite regression).
  PlanNodePtr plan = RepartitionPlan();
  FaultPlan fault(3);
  fault.DropShipments(1.0, /*seed=*/7);
  ExecMetrics m;
  auto result = RunUnder(fault, *plan, &m);
  ASSERT_FALSE(result.ok());
  ExpectCleanFailure(result.status(), m);
  EXPECT_GT(m.wall_seconds, 0.0);  // wall time is an observation, kept
}

TEST_F(ChaosExecutorTest, AllNodesCrashingReturnsTypedError) {
  PlanNodePtr plan = RepartitionPlan();
  FaultPlan fault(3);
  for (int node = 0; node < 3; ++node) fault.CrashNodeAtOp(node, 0);
  ExecMetrics m;
  auto result = RunUnder(fault, *plan, &m);
  ASSERT_FALSE(result.ok());
  ExpectCleanFailure(result.status(), m);
}

TEST_F(ChaosExecutorTest, StragglerDelaysButNeverDegrades) {
  PlanNodePtr plan = RepartitionPlan();
  FaultPlan fault(3);
  fault.SlowNode(1, 1e-4);
  ExecMetrics m;
  auto result = RunUnder(fault, *plan, &m);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectExactRecovery(*result, m, Expected(), *jg_);
  EXPECT_GT(fault.slow_ops(), 0u);
  EXPECT_TRUE(m.degraded_nodes.empty());
  EXPECT_EQ(m.recovery_attempts, 0u);
}

TEST_F(ChaosExecutorTest, StragglerPlusCrashOnSameNode) {
  // The nastiest single-node failure mode: a node limps (straggler
  // delay on every op) and then dies mid-plan. Recovery must still
  // produce bit-identical rows, serial and parallel.
  PlanNodePtr plan = RepartitionPlan();
  for (bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    FaultPlan fault(3);
    fault.SlowNode(1, 1e-4);
    fault.CrashNodeAtOp(1, 2);  // limps through two ops, then dies
    Executor exec(*cluster_, *jg_, CostParams{}, parallel);
    ExecMetrics m;
    Result<BindingTable> result = [&] {
      FaultScope scope(&fault);
      return exec.Execute(*plan, &m);
    }();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectExactRecovery(*result, m, Expected(), *jg_);
    EXPECT_EQ(fault.crashes_fired(), 1u);
    ASSERT_EQ(m.degraded_nodes.size(), 1u);
    EXPECT_EQ(m.degraded_nodes[0], 1);
    EXPECT_GT(fault.slow_ops(), 0u);  // the limp was real, not skipped
    EXPECT_GE(m.recovery_attempts, 1u);
  }
}

TEST_F(ChaosExecutorTest, FlappingNodeCrashRecoverCrash) {
  // Flapping node: persistently sick -> cured -> sick again, across three
  // consecutive executions sharing one fault plan and one health
  // registry (a zero cooldown re-probes an open breaker at once, so the
  // breaker only observes; the breaker-driven quarantine path is covered
  // in health_test). Every phase must uphold the chaos invariant, serial
  // and parallel.
  PlanNodePtr plan = RepartitionPlan();
  for (bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    FaultPlan fault(3);
    HealthConfig hc;
    hc.cooldown_seconds = 0;  // observe, never keep the node out
    NodeHealthRegistry health(3, hc);
    Executor exec(*cluster_, *jg_, CostParams{}, parallel, RetryPolicy{},
                  ExecEngine::kBatch, &health);
    FaultScope scope(&fault);

    // Phase 1: node 1 is sick; every probe on it is refused until the
    // executor re-homes its partition.
    fault.SickNode(1);
    ExecMetrics m1;
    auto r1 = exec.Execute(*plan, &m1);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ExpectExactRecovery(*r1, m1, Expected(), *jg_);
    ASSERT_EQ(m1.degraded_nodes.size(), 1u);
    EXPECT_EQ(m1.degraded_nodes[0], 1);
    EXPECT_GT(fault.sick_refusals(), 0u);
    EXPECT_GE(health.consecutive_failures(1), 1);
    health.RecordSession(m1);

    // Phase 2: cured. The node serves again; nothing degrades and the
    // success feedback clears its failure streak.
    fault.CureNode(1);
    ExecMetrics m2;
    auto r2 = exec.Execute(*plan, &m2);
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    ExpectExactRecovery(*r2, m2, Expected(), *jg_);
    EXPECT_TRUE(m2.degraded_nodes.empty());
    EXPECT_EQ(m2.recovery_attempts, 0u);
    EXPECT_GT(m2.node_ops[1], 0u);
    health.RecordSession(m2);
    EXPECT_EQ(health.consecutive_failures(1), 0);

    // Phase 3: sick again — the flap. Detection and recovery repeat.
    fault.SickNode(1);
    ExecMetrics m3;
    auto r3 = exec.Execute(*plan, &m3);
    ASSERT_TRUE(r3.ok()) << r3.status().ToString();
    ExpectExactRecovery(*r3, m3, Expected(), *jg_);
    ASSERT_EQ(m3.degraded_nodes.size(), 1u);
    EXPECT_EQ(m3.degraded_nodes[0], 1);
    EXPECT_GE(health.consecutive_failures(1), 1);
    health.RecordSession(m3);
  }
}

TEST_F(ChaosExecutorTest, EmptyFaultPlanChangesNothing) {
  PlanNodePtr plan = RepartitionPlan();
  Executor exec(*cluster_, *jg_, CostParams{});
  ExecMetrics off, on;
  auto bare = exec.Execute(*plan, &off);
  FaultPlan fault(3);
  auto scoped = RunUnder(fault, *plan, &on);
  ASSERT_TRUE(bare.ok());
  ASSERT_TRUE(scoped.ok());
  EXPECT_EQ(Normalize(*bare, *jg_), Normalize(*scoped, *jg_));
  EXPECT_EQ(off.rows_scanned, on.rows_scanned);
  EXPECT_EQ(off.rows_transferred, on.rows_transferred);
  EXPECT_EQ(off.bytes_shipped, on.bytes_shipped);
  EXPECT_DOUBLE_EQ(off.measured_cost, on.measured_cost);
  EXPECT_EQ(on.recovery_attempts, 0u);
  EXPECT_EQ(on.shipments_dropped, 0u);
}

TEST_F(ChaosExecutorTest, SeededFaultsReplayIdentically) {
  PlanNodePtr plan = RepartitionPlan();
  FaultPlanConfig config;
  config.crash_probability = 0.4;
  config.drop_probability = 0.3;
  RetryPolicy retry;
  retry.max_attempts = 8;

  auto run = [&](ExecMetrics* m, std::uint64_t* crashes,
                 std::uint64_t* drops) {
    FaultPlan fault(/*seed=*/99, 3, config);
    auto result = RunUnder(fault, *plan, m, retry);
    *crashes = fault.crashes_fired();
    *drops = fault.drops_fired();
    return result;
  };
  ExecMetrics m1, m2;
  std::uint64_t c1, c2, d1, d2;
  auto r1 = run(&m1, &c1, &d1);
  auto r2 = run(&m2, &c2, &d2);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(d1, d2);
  ASSERT_EQ(r1.ok(), r2.ok());
  if (r1.ok()) {
    EXPECT_EQ(Normalize(*r1, *jg_), Normalize(*r2, *jg_));
    EXPECT_EQ(m1.recovery_attempts, m2.recovery_attempts);
    EXPECT_EQ(m1.operators_reexecuted, m2.operators_reexecuted);
    EXPECT_EQ(m1.rows_reshipped, m2.rows_reshipped);
    EXPECT_EQ(m1.degraded_nodes, m2.degraded_nodes);
  } else {
    EXPECT_EQ(r1.status().code(), r2.status().code());
  }
}

// ---------------------------------------------------------------------------
// Optimizer deadlines: a tiny budget degrades gracefully instead of
// failing, and a generous one changes nothing.

TEST(ChaosDeadlineTest, ExpiredDeadlineStillYieldsExecutablePlan) {
  Rng rng(7);
  GeneratedQuery q = GenerateRandomQuery(QueryShape::kDense, 12, rng);
  testing::QueryFixture fixture(q, /*use_hash_locality=*/false);

  OptimizeOptions options;
  options.deadline = Deadline::AfterSeconds(0);  // already expired
  OptimizeResult r = Optimize(Algorithm::kTdCmd, fixture.inputs(), options);
  ASSERT_NE(r.plan, nullptr);
  EXPECT_TRUE(r.timed_out);
  EXPECT_TRUE(PlanValidator(fixture.jg(), fixture.inputs().local_index)
                  .ValidatePlan(*r.plan)
                  .ok());
}

TEST(ChaosDeadlineTest, MscFallbackCoversEveryAlgorithm) {
  // Every algorithm probes the deadline. Under an expired one each stops
  // before its first complete plan, and the Optimize() wrapper re-runs
  // MSC with the deadline lifted so the caller still gets a plan, which
  // the result names as MSC's.
  Rng rng(13);
  GeneratedQuery q = GenerateRandomQuery(QueryShape::kDense, 10, rng);
  testing::QueryFixture fixture(q, /*use_hash_locality=*/false);

  OptimizeOptions options;
  options.deadline = Deadline::AfterSeconds(0);
  for (Algorithm a : {Algorithm::kTdCmd, Algorithm::kTdCmdp,
                      Algorithm::kHgrTdCmd, Algorithm::kTdAuto,
                      Algorithm::kMsc, Algorithm::kDpBushy,
                      Algorithm::kBinaryDp}) {
    SCOPED_TRACE(ToString(a));
    OptimizeResult r = Optimize(a, fixture.inputs(), options);
    ASSERT_NE(r.plan, nullptr);
    EXPECT_TRUE(r.timed_out);
    EXPECT_TRUE(r.fell_back_to_msc);
    EXPECT_EQ(r.algorithm_used, Algorithm::kMsc);
    EXPECT_TRUE(PlanValidator(fixture.jg(), fixture.inputs().local_index)
                    .ValidatePlan(*r.plan)
                    .ok());
    if (a == Algorithm::kDpBushy) {
      OptimizeResult full = Optimize(a, fixture.inputs(), OptimizeOptions{});
      EXPECT_FALSE(full.timed_out);
      EXPECT_LT(r.enumerated, full.enumerated);
    }
  }
}

TEST(ChaosDeadlineTest, NoDeadlineIsBitIdenticalToInfinite) {
  const BenchmarkQuery& bq = GetBenchmarkQuery("L2");
  auto parsed = ParseSparql(bq.sparql);
  ASSERT_TRUE(parsed.ok());
  HashSoPartitioner hash;
  PreparedQuery pq(parsed->patterns, hash, StatsFromData(LubmGraph()));

  OptimizeOptions plain;
  OptimizeOptions infinite = plain;
  infinite.deadline = Deadline::Infinite();
  OptimizeOptions generous = plain;
  generous.deadline = Deadline::AfterSeconds(3600);

  OptimizeResult a = Optimize(Algorithm::kTdCmd, pq.inputs(), plain);
  OptimizeResult b = Optimize(Algorithm::kTdCmd, pq.inputs(), infinite);
  OptimizeResult c = Optimize(Algorithm::kTdCmd, pq.inputs(), generous);
  ASSERT_NE(a.plan, nullptr);
  ASSERT_NE(b.plan, nullptr);
  ASSERT_NE(c.plan, nullptr);
  EXPECT_EQ(a.enumerated, b.enumerated);
  EXPECT_EQ(a.enumerated, c.enumerated);
  EXPECT_DOUBLE_EQ(a.plan->total_cost, b.plan->total_cost);
  EXPECT_DOUBLE_EQ(a.plan->total_cost, c.plan->total_cost);
  EXPECT_FALSE(a.timed_out);
  EXPECT_FALSE(c.timed_out);
  EXPECT_FALSE(c.fell_back_to_msc);
}

TEST(ChaosDeadlineTest, DegradedPlanStillExecutesCorrectly) {
  // End to end: optimize a benchmark query under an expired deadline, then
  // run whatever plan came back against the fault-free cluster and check
  // the rows against the reference evaluator.
  const BenchmarkQuery& bq = GetBenchmarkQuery("L4");
  const RdfGraph& graph = LubmGraph();
  auto parsed = ParseSparql(bq.sparql);
  ASSERT_TRUE(parsed.ok());
  HashSoPartitioner hash;
  PreparedQuery pq(parsed->patterns, hash, StatsFromData(graph));

  OptimizeOptions options;
  options.cost_params.num_nodes = kNodes;
  options.deadline = Deadline::AfterSeconds(0);
  OptimizeResult r = Optimize(Algorithm::kTdAuto, pq.inputs(), options);
  ASSERT_NE(r.plan, nullptr);

  Cluster cluster(graph, hash.PartitionData(graph, kNodes));
  Executor executor(cluster, pq.join_graph(), options.cost_params);
  auto result = executor.Execute(*r.plan, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  JoinGraph reference_jg(parsed->patterns);
  EXPECT_EQ(Normalize(*result, pq.join_graph()),
            testing::ReferenceEvaluate(reference_jg, graph));
}

}  // namespace
}  // namespace parqo
