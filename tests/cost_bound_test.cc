// The cost bound (TdCmdRules::cost_bound) must be exact: for TD-CMD, for
// TD-CMDP and for HGR-TD-CMD, the bounded search returns the unbounded
// search's plan bit for bit — every node's cost and cardinality, not just
// the root's — while enumerating no more divisions. Swept over the random
// shapes with and without hash locality, over the benchmark queries on
// real statistics, and over dense queries large enough that TD-Auto
// routes them to HGR-TD-CMD, whose memo keys are group sets.

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "optimizer/hgr_td_cmd.h"
#include "optimizer/prepared_query.h"
#include "optimizer/td_auto.h"
#include "optimizer/td_cmd.h"
#include "partition/hash_so.h"
#include "query/shape.h"
#include "sparql/parser.h"
#include "stats/data_stats.h"
#include "tests/optimizer_test_util.h"
#include "tests/test_util.h"
#include "workload/benchmark_queries.h"
#include "workload/lubm.h"
#include "workload/uniprot.h"

namespace parqo {
namespace {

using testing::QueryFixture;
using testing::Tp;

enum class Family { kTdCmd, kTdCmdp, kHgrTdCmd };

const char* Name(Family family) {
  switch (family) {
    case Family::kTdCmd: return "TD-CMD";
    case Family::kTdCmdp: return "TD-CMDP";
    case Family::kHgrTdCmd: return "HGR-TD-CMD";
  }
  return "?";
}

constexpr Family kFamilies[] = {Family::kTdCmd, Family::kTdCmdp,
                                Family::kHgrTdCmd};

/// Bounded runs also validate: every candidate the bound lets through
/// must cost at least the bound, so a bound that overshoots by one ulp
/// aborts even where no plan changes.
OptimizeResult RunFamily(Family family, const OptimizerInputs& inputs,
                         bool bounded) {
  TdCmdRules rules = PaperRules(family == Family::kTdCmdp);
  rules.cost_bound = bounded;
  OptimizeOptions options;
  options.validate = bounded;
  if (family == Family::kHgrTdCmd) {
    return RunHgrTdCmd(inputs, options, rules);
  }
  return RunTdCmdWithRules(inputs, options, rules);
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Node-by-node identity: structure, join variables and methods, and the
/// exact bits of every cardinality and cost.
bool SamePlan(const PlanNode& a, const PlanNode& b) {
  if (a.kind != b.kind || a.tps != b.tps || a.tp != b.tp ||
      a.method != b.method || a.join_var != b.join_var ||
      a.children.size() != b.children.size() ||
      !SameBits(a.cardinality, b.cardinality) ||
      !SameBits(a.op_cost, b.op_cost) ||
      !SameBits(a.total_cost, b.total_cost)) {
    return false;
  }
  for (std::size_t i = 0; i < a.children.size(); ++i) {
    if (!SamePlan(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

/// Checks `bounded` against `unbounded` and returns the divisions the
/// bound skipped.
std::uint64_t ExpectSameSearchResult(const OptimizeResult& bounded,
                                     const OptimizeResult& unbounded,
                                     const std::string& label) {
  EXPECT_FALSE(unbounded.timed_out) << label;
  EXPECT_FALSE(bounded.timed_out) << label;
  if (bounded.plan == nullptr || unbounded.plan == nullptr) {
    ADD_FAILURE() << label << ": no plan";
    return 0;
  }
  EXPECT_TRUE(
      SameBits(bounded.plan->total_cost, unbounded.plan->total_cost))
      << label << ": " << bounded.plan->total_cost << " vs "
      << unbounded.plan->total_cost;
  EXPECT_EQ(PlanToCompactString(*bounded.plan),
            PlanToCompactString(*unbounded.plan))
      << label;
  EXPECT_TRUE(SamePlan(*bounded.plan, *unbounded.plan)) << label;
  EXPECT_LE(bounded.enumerated, unbounded.enumerated) << label;
  EXPECT_LE(bounded.memo_entries, unbounded.memo_entries) << label;
  EXPECT_EQ(unbounded.bound_pruned, 0u) << label;
  return bounded.bound_pruned;
}

std::uint64_t ExpectBoundExact(Family family, const OptimizerInputs& inputs,
                               const std::string& label) {
  std::string full = label + " " + Name(family);
  return ExpectSameSearchResult(RunFamily(family, inputs, true),
                                RunFamily(family, inputs, false), full);
}

TEST(CostBoundTest, RandomShapesKeepEveryPlan) {
  // Exhaustive TD-CMD on stars and dense queries grows with the Bell
  // numbers (Eq. 7), so those shapes stop at sizes the unbounded
  // reference still enumerates in well under a second.
  struct Case {
    QueryShape shape;
    std::vector<int> sizes;
  };
  const Case kCases[] = {
      {QueryShape::kChain, {4, 8, 12, 16}},
      {QueryShape::kCycle, {4, 8, 12, 16}},
      {QueryShape::kTree, {4, 8, 12, 16}},
      {QueryShape::kStar, {4, 6, 8, 10}},
      {QueryShape::kDense, {4, 6, 8, 10, 12}},
  };
  std::uint64_t pruned[3] = {0, 0, 0};
  for (const Case& c : kCases) {
    for (int n : c.sizes) {
      for (unsigned draw = 0; draw < 3; ++draw) {
        Rng rng(1000u * n + 77u * static_cast<unsigned>(c.shape) + draw);
        GeneratedQuery q = GenerateRandomQuery(c.shape, n, rng);
        for (bool locality : {false, true}) {
          QueryFixture fx(q, locality);
          std::string label = ToString(c.shape) + std::to_string(n) +
                              " draw " + std::to_string(draw) +
                              (locality ? " hash" : " no-locality");
          for (Family family : kFamilies) {
            pruned[static_cast<int>(family)] +=
                ExpectBoundExact(family, fx.inputs(), label);
          }
        }
      }
    }
  }
  for (Family family : kFamilies) {
    EXPECT_GT(pruned[static_cast<int>(family)], 0u) << Name(family);
  }
}

TEST(CostBoundTest, BenchmarkQueriesOnRealStatistics) {
  // The plan_identity_test scale, so these are the golden's statistics.
  LubmConfig lubm_cfg;
  lubm_cfg.universities = 2;
  RdfGraph lubm = GenerateLubm(lubm_cfg);
  UniprotConfig uni_cfg;
  uni_cfg.proteins = 400;
  RdfGraph uniprot = GenerateUniprot(uni_cfg);
  HashSoPartitioner hash;

  std::uint64_t pruned = 0;
  for (const BenchmarkQuery& bq : AllBenchmarkQueries()) {
    auto parsed = ParseSparql(bq.sparql);
    ASSERT_TRUE(parsed.ok()) << bq.name;
    PreparedQuery prepared(parsed->patterns, hash,
                           StatsFromData(bq.lubm ? lubm : uniprot));
    for (Family family : kFamilies) {
      pruned += ExpectBoundExact(family, prepared.inputs(), bq.name);
    }
  }
  EXPECT_GT(pruned, 0u);
}

TEST(CostBoundTest, TdAutoMatchesTheUnboundedAlgorithmItPicks) {
  // HGR-TD-CMD's memo keys are group sets, which the bound must cost by
  // the patterns they expand to. The generator's dense queries have more
  // patterns than join variables, so the paper's thresholds send them to
  // TD-CMDP below theta_n = 30 patterns; with theta_n = 14, the 14+
  // pattern ones with a degree-5 join variable route to HGR-TD-CMD.
  OptimizeOptions options;
  options.theta_n = 14;
  int routed = 0;
  std::uint64_t hgr_pruned = 0;
  for (int n : {14, 16, 18}) {
    for (unsigned draw = 0; draw < 3; ++draw) {
      Rng rng(1000u * n + 77u * static_cast<unsigned>(QueryShape::kDense) +
              draw);
      QueryFixture fx(GenerateRandomQuery(QueryShape::kDense, n, rng));
      if (TdAutoChoice(fx.jg(), options) != Algorithm::kHgrTdCmd) continue;
      ++routed;
      OptimizeResult autod = RunTdAuto(fx.inputs(), options);
      EXPECT_EQ(autod.algorithm_used, Algorithm::kHgrTdCmd);
      hgr_pruned += ExpectSameSearchResult(
          autod, RunFamily(Family::kHgrTdCmd, fx.inputs(), false),
          "dense" + std::to_string(n) + " draw " + std::to_string(draw) +
              " TD-Auto");
    }
  }
  EXPECT_GE(routed, 5);
  EXPECT_GT(hgr_pruned, 0u);
}

TEST(CostBoundTest, TiesKeepTheIncumbentAndArePruned) {
  // Two patterns sharing ?x and ?y divide the same way on either
  // variable. The division on ?y costs exactly what the incumbent on ?x
  // does: the bound skips it (ties can never replace the incumbent), and
  // the plan still joins on ?x.
  JoinGraph jg({Tp("?x", "p", "?y"), Tp("?x", "q", "?y")});
  QueryGraph qg(jg);
  LocalQueryIndex index = LocalQueryIndex::None(jg.num_tps());
  QueryStatistics stats(jg);
  for (int tp = 0; tp < jg.num_tps(); ++tp) {
    stats.SetCardinality(tp, 100);
    stats.SetBindings(tp, jg.FindVar("x"), 50);
    stats.SetBindings(tp, jg.FindVar("y"), 50);
  }
  CardinalityEstimator estimator(jg, stats);
  OptimizerInputs inputs;
  inputs.join_graph = &jg;
  inputs.query_graph = &qg;
  inputs.local_index = &index;
  inputs.estimator = &estimator;

  OptimizeResult bounded = RunFamily(Family::kTdCmd, inputs, true);
  OptimizeResult unbounded = RunFamily(Family::kTdCmd, inputs, false);
  EXPECT_EQ(ExpectSameSearchResult(bounded, unbounded, "tie"), 1u);
  EXPECT_EQ(bounded.enumerated, 2u);
  ASSERT_NE(bounded.plan, nullptr);
  EXPECT_EQ(bounded.plan->join_var, jg.FindVar("x"));
}

}  // namespace
}  // namespace parqo
