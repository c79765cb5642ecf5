// TD-CMD (Algorithm 1): search-space size against the closed forms of
// Section III-D (this is Table VII's exactness check), plan validity,
// locality handling, and deadline behavior.

#include "optimizer/td_cmd.h"

#include <functional>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "optimizer/enumeration_stats.h"
#include "optimizer/plan_validator.h"
#include "tests/optimizer_test_util.h"
#include "tests/test_util.h"

namespace parqo {
namespace {

using testing::QueryFixture;

OptimizeResult RunOn(const QueryFixture& fx, bool pruned = false) {
  return RunTdCmd(fx.inputs(), OptimizeOptions{}, pruned);
}

TEST(TdCmdTest, ChainSearchSpaceMatchesEquation8) {
  for (int n : {4, 8, 16}) {
    Rng rng(n);
    QueryFixture fx(GenerateRandomQuery(QueryShape::kChain, n, rng),
                    /*use_hash_locality=*/false);
    OptimizeResult r = RunOn(fx);
    ASSERT_NE(r.plan, nullptr);
    EXPECT_EQ(r.enumerated, ChainSearchSpace(n)) << "n=" << n;
  }
}

TEST(TdCmdTest, CycleSearchSpaceMatchesEquation9) {
  for (int n : {4, 8, 16}) {
    Rng rng(n);
    QueryFixture fx(GenerateRandomQuery(QueryShape::kCycle, n, rng),
                    /*use_hash_locality=*/false);
    OptimizeResult r = RunOn(fx);
    ASSERT_NE(r.plan, nullptr);
    EXPECT_EQ(r.enumerated, CycleSearchSpace(n)) << "n=" << n;
  }
}

TEST(TdCmdTest, StarSearchSpaceMatchesEquation7) {
  for (int n : {4, 6, 8}) {
    Rng rng(n);
    QueryFixture fx(GenerateRandomQuery(QueryShape::kStar, n, rng),
                    /*use_hash_locality=*/false);
    OptimizeResult r = RunOn(fx);
    ASSERT_NE(r.plan, nullptr);
    EXPECT_EQ(r.enumerated, StarSearchSpace(n)) << "n=" << n;
  }
}

TEST(TdCmdTest, PlansAreValidAndComplete) {
  for (QueryShape shape : {QueryShape::kStar, QueryShape::kChain,
                           QueryShape::kCycle, QueryShape::kTree,
                           QueryShape::kDense}) {
    Rng rng(77);
    QueryFixture fx(GenerateRandomQuery(shape, 8, rng));
    OptimizeResult r = RunOn(fx);
    ASSERT_NE(r.plan, nullptr) << ToString(shape);
    EXPECT_TRUE(PlanValidator(fx.jg(), nullptr).ValidatePlan(*r.plan).ok())
        << ToString(shape);
    EXPECT_FALSE(r.timed_out);
    EXPECT_GT(r.enumerated, 0u);
  }
}

TEST(TdCmdTest, LocalStarQueryGetsLocalPlanUnderHash) {
  // A star query is fully local under Hash-SO; the best plan must be the
  // single local join (no network cost beats any distributed plan).
  Rng rng(3);
  QueryFixture fx(GenerateRandomQuery(QueryShape::kStar, 5, rng),
                  /*use_hash_locality=*/true);
  OptimizeResult r = RunOn(fx);
  ASSERT_NE(r.plan, nullptr);
  EXPECT_EQ(r.plan->method, JoinMethod::kLocal);
  EXPECT_EQ(r.plan->JoinDepth(), 1);
  EXPECT_EQ(r.plan->children.size(), 5u);
}

TEST(TdCmdTest, WithoutLocalityDistributedJoinsAreUsed) {
  Rng rng(3);
  QueryFixture fx(GenerateRandomQuery(QueryShape::kStar, 5, rng),
                  /*use_hash_locality=*/false);
  OptimizeResult r = RunOn(fx);
  ASSERT_NE(r.plan, nullptr);
  EXPECT_NE(r.plan->method, JoinMethod::kLocal);
}

TEST(TdCmdTest, ExpiredDeadlineLeavesNoPlanAndOptimizeFallsBackToMsc) {
  Rng rng(4);
  QueryFixture fx(GenerateRandomQuery(QueryShape::kDense, 24, rng));
  OptimizeOptions options;
  options.deadline = Deadline::AfterSeconds(0);
  OptimizeResult direct = RunTdCmd(fx.inputs(), options, /*pruned=*/false);
  EXPECT_TRUE(direct.timed_out);
  EXPECT_EQ(direct.plan, nullptr);

  OptimizeResult r = Optimize(Algorithm::kTdCmd, fx.inputs(), options);
  EXPECT_TRUE(r.timed_out);
  EXPECT_TRUE(r.fell_back_to_msc);
  OptimizeResult msc = Optimize(Algorithm::kMsc, fx.inputs(), {});
  ASSERT_NE(r.plan, nullptr);
  ASSERT_NE(msc.plan, nullptr);
  EXPECT_EQ(r.plan->total_cost, msc.plan->total_cost);
  EXPECT_EQ(r.plan->tps, msc.plan->tps);
}

TEST(TdCmdTest, DeterministicAcrossRuns) {
  Rng rng(5);
  GeneratedQuery q = GenerateRandomQuery(QueryShape::kTree, 9, rng);
  QueryFixture fx1(q), fx2(q);
  OptimizeResult r1 = RunOn(fx1);
  OptimizeResult r2 = RunOn(fx2);
  ASSERT_NE(r1.plan, nullptr);
  ASSERT_NE(r2.plan, nullptr);
  EXPECT_DOUBLE_EQ(r1.plan->total_cost, r2.plan->total_cost);
  EXPECT_EQ(r1.enumerated, r2.enumerated);
}

TEST(TdCmdTest, LinearAmortizedEnumerationIsFastOnChains) {
  // The optimal-efficiency claim (Section III): chain-30 has only 4,495
  // operators, so exhaustive optimization must be effectively instant.
  // A generous ceiling guards against accidental quadratic regressions.
  Rng rng(123);
  QueryFixture fx(GenerateRandomQuery(QueryShape::kChain, 30, rng),
                  /*use_hash_locality=*/false);
  OptimizeResult r = RunOn(fx);
  ASSERT_NE(r.plan, nullptr);
  EXPECT_FALSE(r.timed_out);
  EXPECT_LT(r.seconds, 2.0);
  EXPECT_EQ(r.enumerated, ChainSearchSpace(30));
}

TEST(TdCmdpTest, SearchSpaceEqualsTdCmdOnChains) {
  // Table VII: chain and cycle rows are identical for TD-CMD and TD-CMDP.
  for (QueryShape shape : {QueryShape::kChain, QueryShape::kCycle}) {
    Rng rng(6);
    GeneratedQuery q = GenerateRandomQuery(shape, 10, rng);
    QueryFixture fx1(q, false), fx2(q, false);
    EXPECT_EQ(RunOn(fx1, false).enumerated, RunOn(fx2, true).enumerated)
        << ToString(shape);
  }
}

TEST(TdCmdpTest, PrunesStarsTreesAndDense) {
  for (QueryShape shape :
       {QueryShape::kStar, QueryShape::kTree, QueryShape::kDense}) {
    Rng rng(7);
    GeneratedQuery q = GenerateRandomQuery(shape, 9, rng);
    QueryFixture fx1(q, false), fx2(q, false);
    OptimizeResult full = RunOn(fx1, false);
    OptimizeResult pruned = RunOn(fx2, true);
    if (fx1.jg().MaxJoinVarDegree() >= 4) {
      // Rule 1 only bites when some join variable admits incomplete k>2
      // divisions (a degree-3 variable's ternary divisions are all
      // complete already).
      EXPECT_LT(pruned.enumerated, full.enumerated) << ToString(shape);
    } else {
      EXPECT_LE(pruned.enumerated, full.enumerated) << ToString(shape);
    }
    // Rule-pruned plans cannot beat the optimum.
    EXPECT_GE(pruned.plan->total_cost, full.plan->total_cost);
  }
}

TEST(TdCmdpTest, LocalShortCircuitSkipsEnumeration) {
  // Rule 3: a fully local query returns the local join immediately.
  Rng rng(8);
  QueryFixture fx(GenerateRandomQuery(QueryShape::kStar, 8, rng),
                  /*use_hash_locality=*/true);
  OptimizeResult r = RunOn(fx, /*pruned=*/true);
  ASSERT_NE(r.plan, nullptr);
  EXPECT_EQ(r.plan->method, JoinMethod::kLocal);
  EXPECT_EQ(r.enumerated, 0u);
}

TEST(TdCmdpTest, BinaryBroadcastRuleHolds) {
  // Rule 2: no k>2 broadcast joins anywhere in a TD-CMDP plan.
  Rng rng(9);
  QueryFixture fx(GenerateRandomQuery(QueryShape::kTree, 10, rng), false);
  OptimizeResult r = RunOn(fx, /*pruned=*/true);
  ASSERT_NE(r.plan, nullptr);
  std::function<void(const PlanNode&)> check = [&](const PlanNode& n) {
    if (n.kind == PlanNode::Kind::kJoin &&
        n.method == JoinMethod::kBroadcast) {
      EXPECT_EQ(n.children.size(), 2u);
    }
    for (const PlanNodePtr& c : n.children) check(*c);
  };
  check(*r.plan);
}

}  // namespace
}  // namespace parqo
