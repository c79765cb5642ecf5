// The correctness-tooling layer: PARQO_CHECK / PARQO_DCHECK semantics,
// PlanValidator rejecting every class of hand-built invalid plan, the
// Definition 3 division contract, and the full-workload gate — every
// algorithm over L1-L10 / U1-U5 with OptimizeOptions::validate ON,
// multi-threaded, must produce plans and memos that survive the
// validator's independent recomputation.

#include "optimizer/plan_validator.h"

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "optimizer/optimizer.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "partition/local_query_index.h"
#include "plan/plan.h"
#include "query/join_graph.h"
#include "sparql/parser.h"
#include "tests/optimizer_test_util.h"
#include "tests/test_util.h"
#include "workload/benchmark_queries.h"
#include "workload/lubm.h"
#include "workload/random_query.h"
#include "workload/uniprot.h"

namespace parqo {
namespace {

using testing::QueryFixture;
using testing::Tp;

//===--------------------------------------------------------------------===//
// check.h semantics
//===--------------------------------------------------------------------===//

TEST(CheckDeathTest, CheckAbortsWithFileLineAndExpression) {
  EXPECT_DEATH(PARQO_CHECK(1 + 1 == 3),
               "PARQO_CHECK failed at .*validator_test\\.cc:[0-9]+: "
               "1 \\+ 1 == 3");
}

TEST(CheckDeathTest, CheckOkAbortsWithStatusMessage) {
  auto broken = [] { return Status::Internal("memo polluted"); };
  EXPECT_DEATH(PARQO_CHECK_OK(broken()), "memo polluted");
}

TEST(CheckTest, CheckPassesSilently) {
  PARQO_CHECK(2 + 2 == 4);
  PARQO_CHECK_OK(Status::Ok());
}

TEST(CheckTest, DcheckEvaluatesOperandOnlyWhenEnabled) {
  int evaluations = 0;
  auto bump = [&] {
    ++evaluations;
    return true;
  };
  PARQO_DCHECK(bump());
#if PARQO_DCHECK_ENABLED
  EXPECT_EQ(evaluations, 1) << "enabled PARQO_DCHECK must evaluate";
#else
  EXPECT_EQ(evaluations, 0)
      << "PARQO_DCHECK must be compiled out of NDEBUG builds";
#endif
}

#if PARQO_DCHECK_ENABLED
TEST(CheckDeathTest, DcheckAbortsWhenEnabled) {
  EXPECT_DEATH(PARQO_DCHECK(1 == 2), "PARQO_CHECK failed");
}
#endif

//===--------------------------------------------------------------------===//
// PlanValidator vs hand-built invalid plans
//===--------------------------------------------------------------------===//

// A 4-pattern chain: tp0 -?b- tp1 -?c- tp2 -?d- tp3. Non-adjacent
// patterns share nothing, so e.g. {0, 2} is disconnected.
std::vector<TriplePattern> ChainQuery() {
  return {Tp("?a", "p1", "?b"), Tp("?b", "p2", "?c"), Tp("?c", "p3", "?d"),
          Tp("?d", "p4", "?e")};
}

std::shared_ptr<PlanNode> MakeScan(int tp, double card = 10) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanNode::Kind::kScan;
  n->tp = tp;
  n->tps = TpSet::Singleton(tp);
  n->cardinality = card;
  return n;
}

std::shared_ptr<PlanNode> MakeJoin(JoinMethod method, VarId join_var,
                                   std::vector<PlanNodePtr> children,
                                   double card = 5) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanNode::Kind::kJoin;
  n->method = method;
  n->join_var = join_var;
  for (const PlanNodePtr& c : children) {
    n->tps |= c->tps;
    n->total_cost = std::max(n->total_cost, c->total_cost);
  }
  n->cardinality = card;
  n->op_cost = 1;
  n->total_cost += n->op_cost;
  n->children = std::move(children);
  return n;
}

class PlanValidatorTest : public ::testing::Test {
 protected:
  PlanValidatorTest()
      : jg_(ChainQuery()),
        none_(LocalQueryIndex::None(jg_.num_tps())),
        validator_(jg_, &none_) {}

  VarId Var(const std::string& name) {
    VarId v = jg_.FindVar(name);
    PARQO_CHECK(v != kInvalidVarId);
    return v;
  }

  JoinGraph jg_;
  LocalQueryIndex none_;
  PlanValidator validator_;  // structural only: no estimator / cost model
};

TEST_F(PlanValidatorTest, AcceptsWellFormedPlan) {
  auto left = MakeJoin(JoinMethod::kRepartition, Var("b"),
                       {MakeScan(0), MakeScan(1)});
  auto right = MakeJoin(JoinMethod::kRepartition, Var("d"),
                        {MakeScan(2), MakeScan(3)});
  auto root = MakeJoin(JoinMethod::kBroadcast, Var("c"), {left, right});
  Status st = validator_.ValidatePlan(*root);
  EXPECT_TRUE(st.ok()) << st.message();
}

TEST_F(PlanValidatorTest, RejectsDisconnectedBlock) {
  // {tp0, tp2} share no join variable: a Cartesian product.
  auto bad = MakeJoin(JoinMethod::kRepartition, Var("c"),
                      {MakeScan(0), MakeScan(2)});
  Status st = validator_.ValidateSubplan(*bad);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("disconnected"), std::string::npos)
      << st.message();
}

TEST_F(PlanValidatorTest, RejectsOverlappingDivision) {
  auto left = MakeJoin(JoinMethod::kRepartition, Var("b"),
                       {MakeScan(0), MakeScan(1)});
  auto right = MakeJoin(JoinMethod::kRepartition, Var("c"),
                        {MakeScan(1), MakeScan(2)});  // tp1 again
  auto bad = MakeJoin(JoinMethod::kRepartition, Var("c"), {left, right});
  Status st = validator_.ValidateSubplan(*bad);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("overlap"), std::string::npos) << st.message();
}

TEST_F(PlanValidatorTest, RejectsChildrenNotCoveringNode) {
  auto join = MakeJoin(JoinMethod::kRepartition, Var("b"),
                       {MakeScan(0), MakeScan(1)});
  join->tps.Add(2);  // claims tp2 without a child covering it
  Status st = validator_.ValidateSubplan(*join);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cover"), std::string::npos) << st.message();
}

TEST_F(PlanValidatorTest, RejectsDistributedJoinWithoutVariable) {
  auto join = MakeJoin(JoinMethod::kRepartition, kInvalidVarId,
                       {MakeScan(0), MakeScan(1)});
  Status st = validator_.ValidateSubplan(*join);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("without a join variable"), std::string::npos)
      << st.message();
}

TEST_F(PlanValidatorTest, RejectsChildMissingTheJoinVariable) {
  // {tp1, tp2} is connected via ?c, but tp1 does not contain ?d, so a
  // distributed join of the two on ?d violates Definition 3 cond. 3.
  auto join = MakeJoin(JoinMethod::kRepartition, Var("d"),
                       {MakeScan(1), MakeScan(2)});
  Status st = validator_.ValidateSubplan(*join);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("Definition 3"), std::string::npos)
      << st.message();
}

TEST_F(PlanValidatorTest, RejectsLocalJoinOfNonLocalSubquery) {
  // Under LocalQueryIndex::None nothing beyond singletons is local.
  auto join = MakeJoin(JoinMethod::kLocal, kInvalidVarId,
                       {MakeScan(0), MakeScan(1)});
  Status st = validator_.ValidateSubplan(*join);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("non-local"), std::string::npos)
      << st.message();
}

TEST_F(PlanValidatorTest, RejectsLocalJoinOverRepartitionedInput) {
  // Pretend the whole query is one maximal local query so the locality
  // check passes and the partition-property rule is what must fire: a
  // repartition result is hash-distributed on the join variable, not
  // co-located with the stored data, so no local join may consume it.
  LocalQueryIndex permissive(std::vector<TpSet>{TpSet::FullSet(4)});
  PlanValidator validator(jg_, &permissive);
  auto repart = MakeJoin(JoinMethod::kRepartition, Var("b"),
                         {MakeScan(0), MakeScan(1)});
  auto bad = MakeJoin(JoinMethod::kLocal, kInvalidVarId,
                      {repart, MakeScan(2)});
  Status st = validator.ValidateSubplan(*bad);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("illegal partition-property claim"),
            std::string::npos)
      << st.message();
}

TEST_F(PlanValidatorTest, BroadcastPropagatesLargestInputsProperty) {
  LocalQueryIndex permissive(std::vector<TpSet>{TpSet::FullSet(4)});
  PlanValidator validator(jg_, &permissive);
  // The repartition result is the *largest* broadcast input, so the
  // broadcast result inherits its hashed property (II-D) and still must
  // not feed a local join.
  auto repart = MakeJoin(JoinMethod::kRepartition, Var("b"),
                         {MakeScan(0), MakeScan(1)}, /*card=*/100);
  auto bcast = MakeJoin(JoinMethod::kBroadcast, Var("c"),
                        {repart, MakeScan(2)}, /*card=*/50);
  auto bad = MakeJoin(JoinMethod::kLocal, kInvalidVarId,
                      {bcast, MakeScan(3)});
  Status st = validator.ValidateSubplan(*bad);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("illegal partition-property claim"),
            std::string::npos)
      << st.message();

  // With the scan as the largest input the broadcast result stays base
  // partitioned and the same local join is legal.
  auto repart_small = MakeJoin(JoinMethod::kRepartition, Var("b"),
                               {MakeScan(0), MakeScan(1)}, /*card=*/2);
  auto bcast_base = MakeJoin(JoinMethod::kBroadcast, Var("c"),
                             {repart_small, MakeScan(2)}, /*card=*/50);
  auto good = MakeJoin(JoinMethod::kLocal, kInvalidVarId,
                       {bcast_base, MakeScan(3)});
  Status ok = validator.ValidateSubplan(*good);
  EXPECT_TRUE(ok.ok()) << ok.message();
}

TEST_F(PlanValidatorTest, RejectsNonFiniteAndNegativeCosts) {
  auto join = MakeJoin(JoinMethod::kRepartition, Var("b"),
                       {MakeScan(0), MakeScan(1)});
  auto nan_cost = std::make_shared<PlanNode>(*join);
  nan_cost->op_cost = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(validator_.ValidateSubplan(*nan_cost).ok());

  auto negative = std::make_shared<PlanNode>(*join);
  negative->total_cost = -1;
  EXPECT_FALSE(validator_.ValidateSubplan(*negative).ok());

  auto below_op = std::make_shared<PlanNode>(*join);
  below_op->op_cost = 1;
  below_op->total_cost = 0;  // < op_cost: Eq. 3 violated
  EXPECT_FALSE(validator_.ValidateSubplan(*below_op).ok());
}

TEST_F(PlanValidatorTest, RejectsScanAnomalies) {
  auto bad_index = MakeScan(7);  // the query has 4 patterns
  EXPECT_FALSE(validator_.ValidateSubplan(*bad_index).ok());

  auto costed_scan = MakeScan(0);
  costed_scan->total_cost = 3;
  EXPECT_FALSE(validator_.ValidateSubplan(*costed_scan).ok());

  auto wrong_tps = MakeScan(0);
  wrong_tps->tps = TpSet(0b0011);
  EXPECT_FALSE(validator_.ValidateSubplan(*wrong_tps).ok());
}

TEST_F(PlanValidatorTest, MemoEntryMustMatchKeyAndBeConnected) {
  auto join = MakeJoin(JoinMethod::kRepartition, Var("b"),
                       {MakeScan(0), MakeScan(1)});
  Status ok = validator_.ValidateMemoEntry(TpSet(0b0011), *join);
  EXPECT_TRUE(ok.ok()) << ok.message();

  Status wrong_key = validator_.ValidateMemoEntry(TpSet(0b0111), *join);
  ASSERT_FALSE(wrong_key.ok());
  EXPECT_NE(wrong_key.message().find("keyed by"), std::string::npos)
      << wrong_key.message();

  // A disconnected key means the memo got polluted with a subquery that
  // Algorithm 2/3 must never derive (Lemmas 1-2).
  auto cartesian = MakeJoin(JoinMethod::kRepartition, Var("c"),
                            {MakeScan(0), MakeScan(2)});
  Status polluted = validator_.ValidateMemoEntry(TpSet(0b0101), *cartesian);
  ASSERT_FALSE(polluted.ok());
  EXPECT_NE(polluted.message().find("polluted"), std::string::npos)
      << polluted.message();
}

TEST_F(PlanValidatorTest, DivisionContract) {
  TpSet all = jg_.AllTps();
  VarId c = Var("c");
  // {0,1} | {2,3} on ?c is a valid binary division of the chain.
  std::vector<TpSet> good{TpSet(0b0011), TpSet(0b1100)};
  Status ok = ValidateDivision(jg_, all, good, c);
  EXPECT_TRUE(ok.ok()) << ok.message();

  std::vector<TpSet> one_block{TpSet(0b1111)};
  EXPECT_FALSE(ValidateDivision(jg_, all, one_block, c).ok());

  std::vector<TpSet> overlapping{TpSet(0b0111), TpSet(0b1100)};
  EXPECT_FALSE(ValidateDivision(jg_, all, overlapping, c).ok());

  std::vector<TpSet> not_covering{TpSet(0b0011), TpSet(0b0100)};
  EXPECT_FALSE(ValidateDivision(jg_, all, not_covering, c).ok());

  // {1,3} is disconnected even though the union covers q.
  std::vector<TpSet> disconnected{TpSet(0b0101), TpSet(0b1010)};
  EXPECT_FALSE(ValidateDivision(jg_, all, disconnected, c).ok());

  // ?e touches only tp3: block {0,1} has no pattern incident to it.
  EXPECT_FALSE(ValidateDivision(jg_, all, good, Var("e")).ok());
}

//===--------------------------------------------------------------------===//
// Cost recomputation against the real estimator / cost model
//===--------------------------------------------------------------------===//

TEST(PlanValidatorCostTest, DetectsTamperedCostsAndCardinalities) {
  Rng rng(20170547);
  GeneratedQuery q = GenerateRandomQuery(QueryShape::kTree, 7, rng);
  QueryFixture fx(q);
  OptimizerInputs inputs = fx.inputs();
  OptimizeOptions options;
  options.validate = true;
  OptimizeResult result = Optimize(Algorithm::kTdCmd, inputs, options);
  ASSERT_NE(result.plan, nullptr);

  CostModel cost_model(options.cost_params);
  PlanValidator validator(fx.jg(), inputs.local_index, inputs.estimator,
                          &cost_model);
  Status ok = validator.ValidatePlan(*result.plan);
  EXPECT_TRUE(ok.ok()) << ok.message();

  // Tampering with any recorded number must be caught by the
  // independent Eq. 3/4 recomputation.
  auto bumped = std::make_shared<PlanNode>(*result.plan);
  bumped->total_cost += 1e-3;
  EXPECT_FALSE(validator.ValidatePlan(*bumped).ok());

  auto wrong_card = std::make_shared<PlanNode>(*result.plan);
  wrong_card->cardinality *= 2;
  EXPECT_FALSE(validator.ValidatePlan(*wrong_card).ok());
}

//===--------------------------------------------------------------------===//
// Full workloads under validation
//===--------------------------------------------------------------------===//

TEST(ValidatorWorkloadTest, AllAlgorithmsAllBenchmarkQueriesValidate) {
  // L1-L10 / U1-U5 on exact statistics from generated data, every
  // algorithm, validation ON: Optimize() aborts the process if any plan,
  // memo entry, or division violates an invariant, so merely completing
  // this loop is the assertion.
  LubmConfig lubm_cfg;
  lubm_cfg.universities = 2;
  RdfGraph lubm = GenerateLubm(lubm_cfg);
  UniprotConfig uni_cfg;
  uni_cfg.proteins = 400;
  RdfGraph uniprot = GenerateUniprot(uni_cfg);
  HashSoPartitioner hash;

  const std::vector<Algorithm> kAll{
      Algorithm::kMsc,    Algorithm::kDpBushy,  Algorithm::kBinaryDp,
      Algorithm::kTdCmd,  Algorithm::kTdCmdp,   Algorithm::kHgrTdCmd,
      Algorithm::kTdAuto,
  };

  OptimizeOptions options;
  options.validate = true;

  for (const BenchmarkQuery& bq : AllBenchmarkQueries()) {
    auto parsed = ParseSparql(bq.sparql);
    ASSERT_TRUE(parsed.ok()) << bq.name;
    const RdfGraph& data = bq.lubm ? lubm : uniprot;
    PreparedQuery prepared(parsed->patterns, hash, StatsFromData(data));
    for (Algorithm algorithm : kAll) {
      options.deadline = Deadline::AfterSeconds(120);
      OptimizeResult result = Optimize(algorithm, prepared.inputs(), options);
      if (result.timed_out) continue;
      ASSERT_NE(result.plan, nullptr)
          << bq.name << " " << ToString(algorithm);
      EXPECT_EQ(result.plan->tps, prepared.join_graph().AllTps())
          << bq.name << " " << ToString(algorithm);
    }
  }
}

}  // namespace
}  // namespace parqo
