// Self-healing serving tier (DESIGN.md section 16): the
// NodeHealthRegistry's breaker state machine and EWMA tracking, the
// cluster-wide RetryBudget, and their integration into the executor (pre-emptive quarantine, deterministic
// hedging) and the QueryServer (sick-node streams trip breakers and
// route around; retry storms are capped by the shared budget).
//
// The concurrency tests double as the TSan targets for the health
// registry: the CI thread-sanitizer job runs this binary.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "exec/cluster.h"
#include "exec/executor.h"
#include "exec/health.h"
#include "partition/hash_so.h"
#include "plan/plan.h"
#include "rdf/ntriples.h"
#include "server/server.h"
#include "stats/data_stats.h"
#include "tests/test_util.h"

namespace parqo {
namespace {

using testing::Tp;

constexpr int kThreshold = NodeHealthRegistry::kFailureThreshold;

// Records `kThreshold` consecutive failures on `node`: exactly enough to
// trip a closed breaker.
void Trip(NodeHealthRegistry& reg, int node) {
  for (int i = 0; i < kThreshold; ++i) reg.RecordNodeFailure(node);
}

// --------------------------------------------------------------------------
// RetryBudget: the cluster-wide retry cap.

TEST(RetryBudgetTest, FixedCapacityIsAHardBound) {
  RetryBudget budget(3);
  EXPECT_EQ(budget.remaining(), 3u);
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire());  // bucket dry: every further draw fails
  EXPECT_FALSE(budget.TryAcquire());
  EXPECT_EQ(budget.acquired(), 3u);
  EXPECT_EQ(budget.denied(), 2u);
  EXPECT_EQ(budget.remaining(), 0u);
}

TEST(RetryBudgetTest, ConcurrentAcquiresNeverExceedCapacity) {
  // TSan target: 8 threads hammer one fixed bucket; exactly `capacity`
  // acquires may succeed in total, no matter the interleaving.
  constexpr std::uint64_t kCapacity = 1000;
  RetryBudget budget(kCapacity);
  std::atomic<std::uint64_t> successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        if (budget.TryAcquire()) {
          successes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(successes.load(), kCapacity);
  EXPECT_EQ(budget.acquired(), kCapacity);
  EXPECT_EQ(budget.denied(), 8u * 1000u - kCapacity);
}

TEST(RetryBudgetTest, RetryDrawsExactlyOneTokenPerStartedRetry) {
  RetryBudget budget(1);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.budget = &budget;
  Retry retry(policy);

  // The first attempt is free: admission controls first tries, the
  // budget only meters retries.
  ASSERT_TRUE(retry.ShouldRetry());
  EXPECT_EQ(budget.acquired(), 0u);
  retry.BeginAttempt();

  // Retry 1 draws the single token — and repeated ShouldRetry() calls
  // (the executor's loop re-checks) must not double-draw.
  ASSERT_TRUE(retry.ShouldRetry());
  ASSERT_TRUE(retry.ShouldRetry());
  EXPECT_EQ(budget.acquired(), 1u);
  retry.BeginAttempt();

  // Retry 2 finds the bucket dry: the loop stops with the typed cause.
  EXPECT_FALSE(retry.ShouldRetry());
  EXPECT_TRUE(retry.budget_exhausted());
  EXPECT_EQ(budget.denied(), 1u);
}

TEST(RetryBudgetTest, NoBudgetMeansPerQueryPolicyOnly) {
  Retry retry(RetryPolicy{});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(retry.ShouldRetry());
    retry.BeginAttempt();
  }
  EXPECT_FALSE(retry.ShouldRetry());       // per-query attempts exhausted
  EXPECT_FALSE(retry.budget_exhausted());  // ... but not the budget
}

// --------------------------------------------------------------------------
// NodeHealthRegistry: breaker state machine.

TEST(HealthRegistryTest, BreakerTripsAtThresholdNotBefore) {
  HealthConfig cfg;
  cfg.cooldown_seconds = 1000;  // stays open for the whole test
  NodeHealthRegistry reg(2, cfg);

  for (int i = 1; i < kThreshold; ++i) reg.RecordNodeFailure(0);
  EXPECT_EQ(reg.state(0), BreakerState::kClosed);
  EXPECT_TRUE(reg.AllowRoute(0));
  reg.RecordNodeFailure(0);
  EXPECT_EQ(reg.state(0), BreakerState::kOpen);
  EXPECT_EQ(reg.breaker_opens(), 1u);

  // Open inside cooldown: quarantined, and the other node is untouched.
  EXPECT_FALSE(reg.AllowRoute(0));
  EXPECT_GE(reg.routes_denied(), 1u);
  EXPECT_TRUE(reg.AllowRoute(1));
  EXPECT_EQ(reg.state(1), BreakerState::kClosed);
}

TEST(HealthRegistryTest, SuccessResetsTheConsecutiveStreak) {
  NodeHealthRegistry reg(1);
  for (int i = 1; i < kThreshold; ++i) reg.RecordNodeFailure(0);
  reg.RecordNodeSuccess(0, 1e-5);  // a good op between the bad ones
  for (int i = 1; i < kThreshold; ++i) reg.RecordNodeFailure(0);
  // The streak never reached the threshold.
  EXPECT_EQ(reg.state(0), BreakerState::kClosed);
  EXPECT_EQ(reg.consecutive_failures(0), kThreshold - 1);
}

TEST(HealthRegistryTest, CooldownOffersOneProbeAndSuccessCloses) {
  HealthConfig cfg;
  cfg.cooldown_seconds = 0;  // half-open is offered immediately
  NodeHealthRegistry reg(1, cfg);

  Trip(reg, 0);
  ASSERT_EQ(reg.state(0), BreakerState::kOpen);

  // First router past the cooldown claims the probe...
  EXPECT_TRUE(reg.AllowRoute(0));
  EXPECT_EQ(reg.state(0), BreakerState::kHalfOpen);
  EXPECT_EQ(reg.probes_started(), 1u);
  // ... and everyone else keeps being turned away until its outcome.
  EXPECT_FALSE(reg.AllowRoute(0));

  reg.RecordNodeSuccess(0, 1e-5);
  EXPECT_EQ(reg.state(0), BreakerState::kClosed);
  EXPECT_EQ(reg.breaker_closes(), 1u);
  EXPECT_TRUE(reg.AllowRoute(0));
}

TEST(HealthRegistryTest, FailedProbeReopensTheBreaker) {
  HealthConfig cfg;
  cfg.cooldown_seconds = 0;
  NodeHealthRegistry reg(1, cfg);

  Trip(reg, 0);
  ASSERT_TRUE(reg.AllowRoute(0));  // the probe
  ASSERT_EQ(reg.state(0), BreakerState::kHalfOpen);
  reg.RecordNodeFailure(0);  // one failed probe reopens at once
  EXPECT_EQ(reg.state(0), BreakerState::kOpen);
  EXPECT_EQ(reg.breaker_opens(), 2u);
  EXPECT_EQ(reg.breaker_closes(), 0u);
}

TEST(HealthRegistryTest, ExactlyOneConcurrentRouterWinsTheProbe) {
  // TSan target: with the breaker open past cooldown, N racing routers
  // must elect exactly one half-open probe.
  HealthConfig cfg;
  cfg.cooldown_seconds = 0;
  NodeHealthRegistry reg(1, cfg);
  Trip(reg, 0);
  ASSERT_EQ(reg.state(0), BreakerState::kOpen);

  std::atomic<int> allowed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      if (reg.AllowRoute(0)) allowed.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(allowed.load(), 1);
  EXPECT_EQ(reg.probes_started(), 1u);
  EXPECT_EQ(reg.state(0), BreakerState::kHalfOpen);
}

TEST(HealthRegistryTest, ConcurrentFeedbackKeepsInvariants) {
  // TSan target: routing, success/failure feedback, and session
  // recording race freely; the registry must stay sane (no torn EWMAs,
  // opens >= closes, counters monotone).
  HealthConfig cfg;
  cfg.cooldown_seconds = 0;
  NodeHealthRegistry reg(4, cfg);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&reg, t] {
      ExecMetrics fake;
      fake.node_busy_seconds.assign(4, 1e-4);
      fake.node_ops.assign(4, 10);
      fake.node_failures.assign(4, 0);
      fake.wall_seconds = 1e-3;
      for (int i = 0; i < 500; ++i) {
        int node = (t + i) % 4;
        reg.AllowRoute(node);
        if (i % 7 == 0) {
          reg.RecordNodeFailure(node);
        } else {
          reg.RecordNodeSuccess(node, 1e-5 * (1 + node));
        }
        if (i % 64 == 0) reg.RecordSession(fake);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int node = 0; node < 4; ++node) {
    double ewma = reg.EwmaOpSeconds(node);
    EXPECT_TRUE(std::isfinite(ewma));
    EXPECT_GE(ewma, 0.0);
  }
  EXPECT_GE(reg.breaker_opens(), reg.breaker_closes());
  EXPECT_TRUE(std::isfinite(reg.HedgeThresholdSeconds()));
}

// --------------------------------------------------------------------------
// NodeHealthRegistry: EWMA and derived thresholds.

TEST(HealthRegistryTest, EwmaBlendsSamples) {
  constexpr double kAlpha = NodeHealthRegistry::kEwmaAlpha;
  NodeHealthRegistry reg(1);
  EXPECT_EQ(reg.EwmaOpSeconds(0), 0.0);  // no samples yet
  reg.RecordNodeSuccess(0, 0.1);
  EXPECT_DOUBLE_EQ(reg.EwmaOpSeconds(0), 0.1);  // first sample seeds
  reg.RecordNodeSuccess(0, 0.2);
  EXPECT_DOUBLE_EQ(reg.EwmaOpSeconds(0), kAlpha * 0.2 + (1 - kAlpha) * 0.1);
}

TEST(HealthRegistryTest, HedgeThresholdIsQuantileTimesMultiplier) {
  NodeHealthRegistry reg(3);
  EXPECT_TRUE(std::isinf(reg.HedgeThresholdSeconds()));  // no samples

  // One sample per node: each EWMA is its sample, pinning the quantile.
  reg.RecordNodeSuccess(0, 0.1);
  reg.RecordNodeSuccess(1, 0.2);
  reg.RecordNodeSuccess(2, 0.3);
  reg.RecordSession(ExecMetrics{});  // recomputes the derived threshold
  // The 0.9 quantile of {0.1, 0.2, 0.3} interpolates at position 1.8:
  // 0.2 + 0.8 * (0.3 - 0.2) = 0.28; the threshold is 4 times that.
  static_assert(NodeHealthRegistry::kHedgeQuantile == 0.9);
  static_assert(NodeHealthRegistry::kHedgeMultiplier == 4.0);
  EXPECT_DOUBLE_EQ(reg.HedgeThresholdSeconds(), 4.0 * 0.28);
}

TEST(HealthRegistryTest, HedgeThresholdRespectsTheFloor) {
  NodeHealthRegistry reg(1);
  // Far below the floor even after the multiplier.
  reg.RecordNodeSuccess(0, 1e-6);
  reg.RecordSession(ExecMetrics{});
  EXPECT_DOUBLE_EQ(reg.HedgeThresholdSeconds(),
                   NodeHealthRegistry::kHedgeMinSeconds);
}

// --------------------------------------------------------------------------
// Executor integration on a tiny hand-made cluster (the chaos_test mini
// fixture): quarantine and hedging.

class HealthExecutorTest : public ::testing::Test {
 protected:
  HealthExecutorTest() {
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

  std::set<std::vector<TermId>> Expected() {
    return testing::ReferenceEvaluate(*jg_, *graph_);
  }

  std::set<std::vector<TermId>> Normalize(const BindingTable& t) {
    std::set<std::vector<TermId>> rows;
    for (std::size_t r = 0; r < t.NumRows(); ++r) {
      std::vector<TermId> row;
      for (VarId v = 0; v < jg_->num_vars(); ++v) {
        int c = t.ColumnOf(v);
        row.push_back(c < 0 ? kInvalidTermId : t.At(r, c));
      }
      rows.insert(row);
    }
    return rows;
  }

  HashSoPartitioner hash_;
  std::unique_ptr<RdfGraph> graph_;
  std::unique_ptr<JoinGraph> jg_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<CardinalityEstimator> estimator_;
  std::unique_ptr<PlanBuilder> builder_;
};

TEST_F(HealthExecutorTest, OpenBreakerQuarantinesPreemptively) {
  // Trip node 1's breaker out-of-band (a previous session's failures),
  // then execute: the partition must be re-homed BEFORE dispatch, with
  // zero mid-query crash detections and bit-identical rows.
  HealthConfig cfg;
  cfg.cooldown_seconds = 1000;
  NodeHealthRegistry health(3, cfg);
  Trip(health, 1);
  ASSERT_EQ(health.state(1), BreakerState::kOpen);

  PlanNodePtr plan = RepartitionPlan();
  for (bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    Executor exec(*cluster_, *jg_, CostParams{}, parallel, RetryPolicy{},
                  ExecEngine::kBatch, &health);
    ExecMetrics m;
    auto result = exec.Execute(*plan, &m);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(Normalize(*result), Expected());
    ASSERT_EQ(m.quarantined_nodes.size(), 1u);
    EXPECT_EQ(m.quarantined_nodes[0], 1);
    EXPECT_TRUE(m.degraded_nodes.empty());
    EXPECT_EQ(m.recovery_attempts, 0u);
    EXPECT_EQ(m.node_ops[1], 0u);  // never dispatched to the open node
    for (std::uint64_t f : m.node_failures) EXPECT_EQ(f, 0u);
  }
}

TEST_F(HealthExecutorTest, LastSurvivorIsNeverQuarantined) {
  HealthConfig cfg;
  cfg.cooldown_seconds = 1000;
  NodeHealthRegistry health(3, cfg);
  for (int node = 0; node < 3; ++node) Trip(health, node);

  PlanNodePtr plan = RepartitionPlan();
  Executor exec(*cluster_, *jg_, CostParams{}, /*parallel_nodes=*/false,
                RetryPolicy{}, ExecEngine::kBatch, &health);
  ExecMetrics m;
  auto result = exec.Execute(*plan, &m);
  // A query beats no query: with every breaker open, one survivor keeps
  // serving and the rows are still exact.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Normalize(*result), Expected());
  EXPECT_EQ(m.quarantined_nodes.size(), 2u);
}

TEST_F(HealthExecutorTest, HedgedStragglerKeepsRowsBitIdentical) {
  // Train healthy EWMAs so the hedge threshold is finite and below the
  // straggler's injected delay, then run against a slow node: every op
  // bound for it is hedged to a healthy peer, the hedge wins (strictly
  // smaller in-flight delay), and the rows match the fault-free run.
  NodeHealthRegistry health(3);
  for (int node = 0; node < 3; ++node) health.RecordNodeSuccess(node, 1e-5);
  health.RecordSession(ExecMetrics{});
  double threshold = health.HedgeThresholdSeconds();
  ASSERT_TRUE(std::isfinite(threshold));

  const double delay = 4 * threshold;
  PlanNodePtr plan = RepartitionPlan();
  for (bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    FaultPlan fault(3);
    fault.SlowNode(2, delay);
    Executor exec(*cluster_, *jg_, CostParams{}, parallel, RetryPolicy{},
                  ExecEngine::kBatch, &health);
    ExecMetrics m;
    Result<BindingTable> result = [&] {
      FaultScope scope(&fault);
      return exec.Execute(*plan, &m);
    }();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(Normalize(*result), Expected());
    EXPECT_GT(m.hedged_ops, 0u);
    EXPECT_EQ(m.hedge_wins, m.hedged_ops);  // peers are strictly faster
    EXPECT_EQ(m.node_ops[2], 0u);   // every straggler op re-homed
    EXPECT_EQ(fault.slow_ops(), 0u);  // the delay was never paid
    EXPECT_TRUE(m.degraded_nodes.empty());
    EXPECT_EQ(m.recovery_attempts, 0u);
  }
}

TEST_F(HealthExecutorTest, HedgeTieKeepsThePrimary) {
  // When every candidate is as slow as the primary, a hedge launches but
  // cannot win: first-completion-wins breaks ties toward the primary so
  // the outcome is deterministic.
  NodeHealthRegistry health(3);
  for (int node = 0; node < 3; ++node) health.RecordNodeSuccess(node, 1e-5);
  health.RecordSession(ExecMetrics{});
  const double delay = 4 * health.HedgeThresholdSeconds();

  FaultPlan fault(3);
  for (int node = 0; node < 3; ++node) fault.SlowNode(node, delay);
  PlanNodePtr plan = RepartitionPlan();
  Executor exec(*cluster_, *jg_, CostParams{}, /*parallel_nodes=*/false,
                RetryPolicy{}, ExecEngine::kBatch, &health);
  ExecMetrics m;
  Result<BindingTable> result = [&] {
    FaultScope scope(&fault);
    return exec.Execute(*plan, &m);
  }();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Normalize(*result), Expected());
  EXPECT_GT(m.hedged_ops, 0u);
  EXPECT_EQ(m.hedge_wins, 0u);  // ties keep the primary copy
  for (int node = 0; node < 3; ++node) EXPECT_GT(m.node_ops[node], 0u);
}

// --------------------------------------------------------------------------
// Server integration: sick-node streams and the shared retry budget.

class HealthServerTest : public ::testing::Test {
 protected:
  HealthServerTest() {
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
    cluster_ = std::make_unique<Cluster>(*graph_,
                                         hash_.PartitionData(*graph_, 3));
  }

  std::vector<TriplePattern> Query() {
    return {Tp("?x", "worksFor", "?y"), Tp("?y", "subOrg", "?u"),
            Tp("?x", "likes", "?z")};
  }

  static std::set<std::vector<TermId>> Rows(const ServeResult& r) {
    std::set<std::vector<TermId>> rows;
    int num_vars = static_cast<int>(r.var_names.size());
    for (std::size_t i = 0; i < r.rows.NumRows(); ++i) {
      std::vector<TermId> row;
      for (VarId v = 0; v < num_vars; ++v) {
        int c = r.rows.ColumnOf(v);
        row.push_back(c < 0 ? kInvalidTermId : r.rows.At(i, c));
      }
      rows.insert(row);
    }
    return rows;
  }

  HashSoPartitioner hash_;
  std::unique_ptr<RdfGraph> graph_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(HealthServerTest, SickNodeTripsBreakerThenSessionsRouteAround) {
  ServerConfig config;
  config.health.cooldown_seconds = 1000;  // stays quarantined once open
  QueryServer server(*graph_, *cluster_, hash_, config);
  ASSERT_NE(server.health(), nullptr);

  // Fault-free baseline rows (also warms the plan cache).
  ServeResult clean = server.Serve(Query());
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  std::set<std::vector<TermId>> baseline = Rows(clean);

  FaultPlan fault(3);
  fault.SickNode(1);
  FaultScope scope(&fault);

  // Stream sessions at the sick node until its breaker trips. Each
  // session detects at least one failure, so the trip must land within
  // kThreshold sessions.
  int sessions_to_trip = 0;
  while (server.health()->state(1) != BreakerState::kOpen) {
    ASSERT_LT(sessions_to_trip, kThreshold)
        << "breaker did not trip within the threshold";
    ServeResult r = server.Serve(Query());
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(Rows(r), baseline);  // recovered, bit-identical
    ++sessions_to_trip;
  }
  EXPECT_LE(sessions_to_trip, kThreshold);
  EXPECT_GE(server.health()->breaker_opens(), 1u);

  // Every session after the trip routes around the open node: zero
  // mid-query crash detections, exact rows, node 1 untouched.
  for (int i = 0; i < 3; ++i) {
    ServeResult r = server.Serve(Query());
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(Rows(r), baseline);
    ASSERT_EQ(r.exec_metrics.quarantined_nodes.size(), 1u);
    EXPECT_EQ(r.exec_metrics.quarantined_nodes[0], 1);
    EXPECT_EQ(r.exec_metrics.node_ops[1], 0u);
    for (std::uint64_t f : r.exec_metrics.node_failures) EXPECT_EQ(f, 0u);
    EXPECT_TRUE(r.exec_metrics.degraded_nodes.empty());
  }
}

TEST_F(HealthServerTest, CuredNodeIsProbedBackIntoService) {
  ServerConfig config;
  config.health.cooldown_seconds = 0;  // probe is offered immediately
  QueryServer server(*graph_, *cluster_, hash_, config);

  FaultPlan fault(3);
  FaultScope scope(&fault);
  fault.SickNode(1);
  // Each session detects at least one failure: the breaker opens within
  // kThreshold sessions.
  for (int i = 0;
       i < kThreshold && server.health()->state(1) != BreakerState::kOpen;
       ++i) {
    ServeResult sick = server.Serve(Query());
    ASSERT_TRUE(sick.status.ok()) << sick.status.ToString();
  }
  ASSERT_EQ(server.health()->state(1), BreakerState::kOpen);

  // The node recovers; the next session wins the half-open probe, the
  // probe succeeds, and the breaker closes.
  fault.CureNode(1);
  ServeResult probe = server.Serve(Query());
  ASSERT_TRUE(probe.status.ok()) << probe.status.ToString();
  EXPECT_EQ(server.health()->state(1), BreakerState::kClosed);
  EXPECT_GE(server.health()->breaker_closes(), 1u);

  // Back to normal service on all three nodes.
  ServeResult after = server.Serve(Query());
  ASSERT_TRUE(after.status.ok());
  EXPECT_GT(after.exec_metrics.node_ops[1], 0u);
  EXPECT_TRUE(after.exec_metrics.quarantined_nodes.empty());
}

TEST_F(HealthServerTest, RetryBudgetCapsTheStormAcrossSessions) {
  ServerConfig config;
  config.retry_budget = 3;  // fixed: total retries across ALL sessions
  config.enable_health = false;  // isolate the budget from quarantining
  QueryServer server(*graph_, *cluster_, hash_, config);
  ASSERT_NE(server.retry_budget(), nullptr);

  ServeResult clean = server.Serve(Query());
  ASSERT_TRUE(clean.status.ok());
  std::set<std::vector<TermId>> baseline = Rows(clean);

  // A flaky network that eats nearly every shipment: each session wants
  // many retries, but the shared bucket only holds 3 in total.
  FaultPlan fault(3);
  fault.DropShipments(0.95, /*seed=*/2017);
  std::uint64_t failed = 0;
  std::uint64_t budget_failures = 0;
  {
    FaultScope scope(&fault);
    for (int i = 0; i < 6; ++i) {
      ServeResult r = server.Serve(Query());
      if (r.status.ok()) {
        EXPECT_EQ(Rows(r), baseline);
      } else {
        // A session may also die on its per-query attempt cap (tokens
        // were granted but every attempt dropped); once the bucket is
        // dry, failures carry the budget-typed message instead.
        ASSERT_EQ(r.status.code(), StatusCode::kUnavailable)
            << r.status.ToString();
        ++failed;
        if (r.status.ToString().find("retry budget") != std::string::npos) {
          ++budget_failures;
        }
      }
    }
  }
  EXPECT_GT(budget_failures, 0u);  // the dry bucket surfaced, typed
  EXPECT_LE(server.retry_budget()->acquired(),
            server.retry_budget()->capacity());
  EXPECT_EQ(server.retry_budget()->remaining(), 0u);
  EXPECT_GT(server.retry_budget()->denied(), 0u);
  EXPECT_GT(failed, 0u);  // the storm was cut short, typed, not retried
}

}  // namespace
}  // namespace parqo
