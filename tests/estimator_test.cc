// Cardinality estimation (Eq. 10/11) and the exact data-derived
// statistics.

#include "stats/estimator.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rdf/ntriples.h"
#include "stats/data_stats.h"
#include "tests/test_util.h"

namespace parqo {
namespace {

using testing::Tp;

TEST(EstimatorTest, SinglePatternIsItsCardinality) {
  JoinGraph jg({Tp("?x", "p", "?y")});
  QueryStatistics stats(jg);
  stats.SetCardinality(0, 123);
  CardinalityEstimator est(jg, std::move(stats));
  EXPECT_DOUBLE_EQ(est.Cardinality(TpSet::Singleton(0)), 123);
}

TEST(EstimatorTest, TwoPatternJoinMatchesEquation10) {
  JoinGraph jg({Tp("?x", "p", "?y"), Tp("?y", "q", "?z")});
  VarId y = jg.FindVar("y");
  QueryStatistics stats(jg);
  stats.SetCardinality(0, 100);
  stats.SetCardinality(1, 50);
  stats.SetBindings(0, y, 20);
  stats.SetBindings(1, y, 40);
  CardinalityEstimator est(jg, std::move(stats));
  // |tp1 JOIN tp2| = 100 * 50 / max(20, 40) = 125.
  TpSet both = TpSet::FullSet(2);
  EXPECT_DOUBLE_EQ(est.Cardinality(both), 125);
  // B(result, y) = min(20, 40) = 20.
  EXPECT_DOUBLE_EQ(est.Bindings(both, y), 20);
}

TEST(EstimatorTest, MultiSharedVariablesMultiplyDenominators) {
  // Two patterns sharing both x and y.
  JoinGraph jg({Tp("?x", "p", "?y"), Tp("?x", "q", "?y")});
  VarId x = jg.FindVar("x");
  VarId y = jg.FindVar("y");
  QueryStatistics stats(jg);
  stats.SetCardinality(0, 1000);
  stats.SetCardinality(1, 1000);
  stats.SetBindings(0, x, 10);
  stats.SetBindings(1, x, 10);
  stats.SetBindings(0, y, 100);
  stats.SetBindings(1, y, 50);
  CardinalityEstimator est(jg, std::move(stats));
  // 1000*1000 / (max(10,10) * max(100,50)) = 1e6 / 1000 = 1000.
  EXPECT_DOUBLE_EQ(est.Cardinality(TpSet::FullSet(2)), 1000);
}

TEST(EstimatorTest, CardinalityFlooredAtOne) {
  JoinGraph jg({Tp("?x", "p", "?y"), Tp("?y", "q", "?z")});
  VarId y = jg.FindVar("y");
  QueryStatistics stats(jg);
  stats.SetCardinality(0, 2);
  stats.SetCardinality(1, 2);
  stats.SetBindings(0, y, 2);
  stats.SetBindings(1, y, 2);
  // 2*2/2 = 2; force tiny: bindings are clamped to <= card so the floor
  // engages with card 1 inputs.
  CardinalityEstimator est(jg, std::move(stats));
  EXPECT_GE(est.Cardinality(TpSet::FullSet(2)), 1.0);
}

TEST(EstimatorTest, DeterministicAcrossCallOrders) {
  Rng rng(7);
  JoinGraph jg(testing::Figure1Query());
  QueryStatistics stats(jg);
  for (int tp = 0; tp < jg.num_tps(); ++tp) {
    stats.SetCardinality(tp, static_cast<double>(rng.Uniform(1, 1000)));
    for (VarId v : jg.VarsOf(tp)) {
      stats.SetBindings(tp, v, static_cast<double>(rng.Uniform(1, 500)));
    }
  }
  CardinalityEstimator a(jg, stats);
  CardinalityEstimator b(jg, stats);
  TpSet full = jg.AllTps();
  TpSet sub;
  sub.Add(0);
  sub.Add(2);
  sub.Add(3);
  // b derives the full query first, a derives the subquery first; the
  // memoized values must agree (pure function of the bitset).
  double b_full = b.Cardinality(full);
  double a_sub = a.Cardinality(sub);
  EXPECT_DOUBLE_EQ(a.Cardinality(full), b_full);
  EXPECT_DOUBLE_EQ(b.Cardinality(sub), a_sub);
}

TEST(EstimatorTest, BindingsNeverExceedCardinality) {
  JoinGraph jg({Tp("?x", "p", "?y"), Tp("?y", "q", "?z")});
  QueryStatistics stats(jg);
  stats.SetCardinality(0, 10);
  stats.SetBindings(0, jg.FindVar("y"), 1e9);  // clamped by setter
  EXPECT_LE(stats.Bindings(0, jg.FindVar("y")), 10);
}

TEST(DataStatsTest, ExactCountsFromGraph) {
  auto g = ParseNTriplesString(
      "<a> <p> <b> .\n"
      "<a> <p> <c> .\n"
      "<d> <p> <c> .\n"
      "<a> <q> <b> .\n");
  ASSERT_TRUE(g.ok());
  JoinGraph jg({Tp("?s", "p", "?o"), Tp("?s", "q", "?o2")});
  QueryStatistics stats = ComputeStatisticsFromGraph(jg, *g);
  EXPECT_DOUBLE_EQ(stats.Cardinality(0), 3);  // three <p> triples
  EXPECT_DOUBLE_EQ(stats.Cardinality(1), 1);
  EXPECT_DOUBLE_EQ(stats.Bindings(0, jg.FindVar("s")), 2);  // a, d
  EXPECT_DOUBLE_EQ(stats.Bindings(0, jg.FindVar("o")), 2);  // b, c
}

TEST(DataStatsTest, ConstantPositionsFilter) {
  auto g = ParseNTriplesString(
      "<a> <p> <b> .\n"
      "<a> <p> <c> .\n"
      "<d> <p> <c> .\n");
  ASSERT_TRUE(g.ok());
  JoinGraph jg({Tp("a", "p", "?o"), Tp("?s", "p", "c")});
  QueryStatistics stats = ComputeStatisticsFromGraph(jg, *g);
  EXPECT_DOUBLE_EQ(stats.Cardinality(0), 2);
  EXPECT_DOUBLE_EQ(stats.Cardinality(1), 2);
}

TEST(DataStatsTest, UnmatchableConstantsGetFloorCardinality) {
  auto g = ParseNTriplesString("<a> <p> <b> .\n");
  ASSERT_TRUE(g.ok());
  JoinGraph jg({Tp("?s", "nosuch", "?o"), Tp("?s", "p", "?x")});
  QueryStatistics stats = ComputeStatisticsFromGraph(jg, *g);
  EXPECT_DOUBLE_EQ(stats.Cardinality(0), 1);
}

TEST(DataStatsTest, AllConstantPatternsGetFloorCardinality) {
  // Over a deduplicated graph an all-constant pattern matches 0 or 1
  // triples; both floor to 1 without asking the index, which has no
  // aggregate for a fully bound mask.
  auto g = ParseNTriplesString(
      "<a> <p> <b> .\n"
      "<a> <p> <c> .\n");
  ASSERT_TRUE(g.ok());
  JoinGraph jg({Tp("a", "p", "b"), Tp("a", "p", "nosuch"),
                Tp("?s", "p", "?o")});
  QueryStatistics stats = ComputeStatisticsFromGraph(jg, *g);
  EXPECT_DOUBLE_EQ(stats.Cardinality(0), 1);
  EXPECT_DOUBLE_EQ(stats.Cardinality(1), 1);
  EXPECT_DOUBLE_EQ(stats.Cardinality(2), 2);
}

TEST(DataStatsTest, RepeatedVariableRequiresEquality) {
  auto g = ParseNTriplesString(
      "<a> <p> <a> .\n"
      "<a> <p> <b> .\n");
  ASSERT_TRUE(g.ok());
  JoinGraph jg({Tp("?x", "p", "?x"), Tp("?x", "p", "?y")});
  QueryStatistics stats = ComputeStatisticsFromGraph(jg, *g);
  EXPECT_DOUBLE_EQ(stats.Cardinality(0), 1);  // only <a> <p> <a>
  EXPECT_DOUBLE_EQ(stats.Cardinality(1), 2);
}

}  // namespace
}  // namespace parqo
