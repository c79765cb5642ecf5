// Execution engine tests: binding tables, node-store scans, and plan
// execution on a tiny hand-made cluster, checked against the reference
// evaluator.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "exec/binding_table.h"
#include "exec/cluster.h"
#include "exec/executor.h"
#include "exec/join_kernel.h"
#include "optimizer/optimizer.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "plan/plan.h"
#include "query/match.h"
#include "rdf/ntriples.h"
#include "sparql/parser.h"
#include "stats/data_stats.h"
#include "tests/reference_join.h"
#include "tests/test_util.h"
#include "workload/benchmark_queries.h"
#include "workload/lubm.h"
#include "workload/watdiv.h"

namespace parqo {
namespace {

using testing::Tp;

BindingTable MakeTable(std::vector<VarId> schema,
                       const std::vector<std::vector<TermId>>& rows) {
  BindingTable t(std::move(schema));
  for (const std::vector<TermId>& r : rows) t.AppendRow(r);
  return t;
}

TEST(BindingTableTest, DeduplicateAndProject) {
  BindingTable t({0, 1});
  t.AppendRow(std::vector<TermId>{1, 2});
  t.AppendRow(std::vector<TermId>{1, 2});
  t.AppendRow(std::vector<TermId>{1, 3});
  EXPECT_EQ(t.NumRows(), 3u);
  t.Deduplicate();
  EXPECT_EQ(t.NumRows(), 2u);

  BindingTable p = t.Project({0});
  EXPECT_EQ(p.NumRows(), 1u);  // both rows have 1 in column 0
  EXPECT_EQ(p.At(0, 0), 1u);
  EXPECT_EQ(t.ColumnOf(1), 1);
  EXPECT_EQ(t.ColumnOf(9), -1);
}

TEST(BindingTableTest, DeduplicateEdgeCases) {
  // Empty schema: a table with no columns has no rows by definition.
  BindingTable empty;
  empty.Deduplicate();
  EXPECT_EQ(empty.NumRows(), 0u);
  EXPECT_EQ(empty.num_cols(), 0);

  // All-duplicate input collapses to one row.
  BindingTable dup({0, 1});
  for (int i = 0; i < 100; ++i) dup.AppendRow(std::vector<TermId>{7, 9});
  dup.Deduplicate();
  ASSERT_EQ(dup.NumRows(), 1u);
  EXPECT_EQ(dup.At(0, 0), 7u);
  EXPECT_EQ(dup.At(0, 1), 9u);

  // Keep-first order: survivors appear in first-occurrence order.
  BindingTable t = MakeTable({0}, {{3}, {1}, {3}, {2}, {1}});
  t.Deduplicate();
  ASSERT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.At(0, 0), 3u);
  EXPECT_EQ(t.At(1, 0), 1u);
  EXPECT_EQ(t.At(2, 0), 2u);
}

TEST(BindingTableTest, ProjectEdgeCases) {
  BindingTable t = MakeTable({0, 1}, {{1, 2}, {1, 3}, {1, 2}});

  // Zero-column projection: no schema means no rows.
  BindingTable none = t.Project({});
  EXPECT_EQ(none.num_cols(), 0);
  EXPECT_EQ(none.NumRows(), 0u);

  // All-duplicate on the projected column.
  BindingTable one = t.Project({0});
  ASSERT_EQ(one.NumRows(), 1u);
  EXPECT_EQ(one.At(0, 0), 1u);

  // Projecting an empty table keeps the schema, zero rows.
  BindingTable empty_in({0, 1});
  BindingTable empty_out = empty_in.Project({1});
  EXPECT_EQ(empty_out.num_cols(), 1);
  EXPECT_EQ(empty_out.NumRows(), 0u);
}

TEST(BindingTableTest, AppendFrom) {
  BindingTable src = MakeTable({0, 1}, {{1, 10}, {2, 20}, {3, 30}});
  BindingTable dst({0, 1});
  dst.AppendFrom(src);
  dst.AppendFrom(src);
  ASSERT_EQ(dst.NumRows(), 6u);
  EXPECT_EQ(dst.At(4, 0), 2u);
  EXPECT_EQ(dst.At(4, 1), 20u);
}

// ---------------------------------------------------------------------------
// Batch join kernels vs the row-at-a-time reference: operator== demands
// identical schema, rows, AND row order, so these also pin the canonical
// emit order (probe ascending, build matches ascending).

TEST(JoinKernelTest, EmptyBuildSide) {
  BindingTable left({0, 1});  // empty: becomes the build side
  BindingTable right = MakeTable({1, 2}, {{1, 5}, {2, 6}});
  BindingTable batch = BatchHashJoin(left, right);
  EXPECT_EQ(batch.NumRows(), 0u);
  EXPECT_EQ(batch.schema(), (std::vector<VarId>{0, 1, 2}));
  EXPECT_EQ(batch, testing::ReferenceHashJoin(left, right));
}

TEST(JoinKernelTest, EmptyProbeSide) {
  BindingTable left = MakeTable({0, 1}, {{1, 2}, {3, 4}});
  BindingTable right({1, 2});  // empty: the larger left would probe
  BindingTable batch = BatchHashJoin(left, right);
  EXPECT_EQ(batch.NumRows(), 0u);
  EXPECT_EQ(batch, testing::ReferenceHashJoin(left, right));
}

TEST(JoinKernelTest, FullySharedSchemas) {
  // Identical schemas: the key is every column (generic kernel), and the
  // join is an order-preserving multiset intersection.
  BindingTable left = MakeTable({0, 1}, {{1, 2}, {3, 4}, {5, 6}, {1, 2}});
  BindingTable right = MakeTable({0, 1}, {{3, 4}, {1, 2}, {7, 8}});
  BindingTable batch = BatchHashJoin(left, right);
  EXPECT_EQ(batch, testing::ReferenceHashJoin(left, right));
  // right built (3 < 4 rows); probe = left rows in order, {5,6} unmatched.
  EXPECT_EQ(batch,
            MakeTable({0, 1}, {{1, 2}, {3, 4}, {1, 2}}));
}

TEST(JoinKernelTest, CrossProductWhenNoSharedVars) {
  BindingTable left = MakeTable({0}, {{1}, {2}});
  BindingTable right = MakeTable({1}, {{10}, {20}, {30}});
  BindingTable batch = BatchHashJoin(left, right);
  EXPECT_EQ(batch, testing::ReferenceHashJoin(left, right));
  // Left-row-major order.
  EXPECT_EQ(batch, MakeTable({0, 1}, {{1, 10}, {1, 20}, {1, 30},
                                      {2, 10}, {2, 20}, {2, 30}}));
}

TEST(JoinKernelTest, MultiKeyJoinMatchesReference) {
  // Two shared variables exercise the generic kernel with hash-match plus
  // key confirmation.
  BindingTable left = MakeTable(
      {0, 1, 2}, {{1, 2, 9}, {1, 3, 8}, {4, 2, 7}, {1, 2, 6}});
  BindingTable right =
      MakeTable({0, 1, 3}, {{1, 2, 100}, {4, 2, 200}, {9, 9, 300}});
  BindingTable batch = BatchHashJoin(left, right);
  EXPECT_EQ(batch, testing::ReferenceHashJoin(left, right));
  EXPECT_EQ(batch.NumRows(), 3u);
}

TEST(JoinKernelTest, SingleKeyCollisionsStaySeparate) {
  // Regression for the single-key fast path: two distinct TermIds whose
  // hashes collide under the table mask must never cross-match. With a
  // 3-row build the capacity is 16; hunt for a colliding partner.
  const TermId k1 = 1;
  const std::uint64_t home = JoinKeyHash(k1) & 15u;
  TermId k2 = kInvalidTermId;
  for (TermId t = 2; t < 1000000; ++t) {
    if ((JoinKeyHash(t) & 15u) == home) {
      k2 = t;
      break;
    }
  }
  ASSERT_NE(k2, kInvalidTermId) << "no colliding TermId found";

  SingleKeyJoinTable table;
  const std::vector<TermId> keys{k1, k2, k1};
  table.Build(keys.data(), keys.size());
  std::vector<std::uint32_t> hits;
  table.ForEachMatch(k1, [&](std::uint32_t r) { hits.push_back(r); });
  EXPECT_EQ(hits, (std::vector<std::uint32_t>{0, 2}));  // ascending
  hits.clear();
  table.ForEachMatch(k2, [&](std::uint32_t r) { hits.push_back(r); });
  EXPECT_EQ(hits, (std::vector<std::uint32_t>{1}));

  // End to end: the colliding keys join only with themselves.
  BindingTable left = MakeTable({0, 1}, {{k1, 10}, {k2, 20}, {k1, 30}});
  BindingTable right = MakeTable({0, 2}, {{k2, 1}, {k1, 2}, {k1, 3}, {9, 4}});
  BindingTable batch = BatchHashJoin(left, right);
  EXPECT_EQ(batch, testing::ReferenceHashJoin(left, right));
  EXPECT_EQ(batch.NumRows(), 5u);  // k1: 2x2 pairings, k2: 1x1
}

TEST(JoinKernelTest, GenericKernelMatchesSpecialized) {
  BindingTable left({0, 1});
  BindingTable right({1, 2});
  for (TermId r = 0; r < 257; ++r) {
    left.AppendRow(std::vector<TermId>{r, r % 17});
    right.AppendRow(std::vector<TermId>{r % 17, r + 1000});
  }
  BatchJoinOptions generic;
  generic.force_generic_kernel = true;
  BindingTable fast = BatchHashJoin(left, right);
  EXPECT_EQ(fast, BatchHashJoin(left, right, generic));
  EXPECT_EQ(fast, testing::ReferenceHashJoin(left, right));
}

TEST(NodeStoreTest, ScansByPatternShape) {
  Dictionary d;
  TermId a = d.EncodeIri("a"), b = d.EncodeIri("b"), c = d.EncodeIri("c"),
         p = d.EncodeIri("p"), q = d.EncodeIri("q");
  NodeStore store({{a, p, b}, {a, p, c}, {b, q, c}, {c, p, a}});

  ResolvedPattern all_p;  // ?x <p> ?y
  all_p.p = p;
  all_p.var_s = 0;
  all_p.var_o = 1;
  all_p.schema = {0, 1};
  EXPECT_EQ(store.Scan(all_p).NumRows(), 3u);

  ResolvedPattern s_const = all_p;  // <a> <p> ?y
  s_const.s = a;
  s_const.var_s = kInvalidVarId;
  s_const.schema = {1};
  EXPECT_EQ(store.Scan(s_const).NumRows(), 2u);

  ResolvedPattern o_const = all_p;  // ?x <p> <c>
  o_const.o = c;
  o_const.var_o = kInvalidVarId;
  o_const.schema = {0};
  EXPECT_EQ(store.Scan(o_const).NumRows(), 1u);

  ResolvedPattern var_p;  // ?x ?pp ?y : full scan
  var_p.var_s = 0;
  var_p.var_p = 2;
  var_p.var_o = 1;
  var_p.schema = {0, 1, 2};
  EXPECT_EQ(store.Scan(var_p).NumRows(), 4u);

  ResolvedPattern unmatch = all_p;
  unmatch.unmatchable = true;
  EXPECT_EQ(store.Scan(unmatch).NumRows(), 0u);
}

TEST(NodeStoreTest, RepeatedVariableFiltersRows) {
  Dictionary d;
  TermId a = d.EncodeIri("a"), b = d.EncodeIri("b"),
         p = d.EncodeIri("p");
  NodeStore store({{a, p, a}, {a, p, b}});
  ResolvedPattern same;  // ?x <p> ?x
  same.p = p;
  same.var_s = 0;
  same.var_o = 0;
  same.schema = {0};
  BindingTable t = store.Scan(same);
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.At(0, 0), a);
}

// ---------------------------------------------------------------------------
// Key-filtered scans (sideways information passing): a filtered scan must
// equal the unfiltered scan restricted to the keys, as a multiset, on
// both the seek path (no more keys than pages) and the decode-filter
// path.

// Rows as a sorted multiset of schema-ordered vectors.
std::vector<std::vector<TermId>> Multiset(const BindingTable& t) {
  std::vector<std::vector<TermId>> rows(t.NumRows());
  for (std::size_t r = 0; r < t.NumRows(); ++r) {
    for (int c = 0; c < t.num_cols(); ++c) rows[r].push_back(t.At(r, c));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::vector<TermId>> Restrict(const BindingTable& t, VarId var,
                                          const std::vector<TermId>& keys) {
  const int col = t.ColumnOf(var);
  std::vector<std::vector<TermId>> rows;
  for (std::vector<TermId>& row : Multiset(t)) {
    if (std::binary_search(keys.begin(), keys.end(), row[col])) {
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

class FilteredScanTest : public ::testing::Test {
 protected:
  static constexpr TermId kP = 5, kQ = 6;

  FilteredScanTest() : store_(Triples()) {}

  // Seven pages of predicate kP, including subject 7 whose 3501 rows
  // (distinct objects, then 1100 copies of one triple) span page
  // boundaries, plus ?x kQ ?x self-loops and kQ edges between them.
  static std::vector<Triple> Triples() {
    std::vector<Triple> t;
    for (TermId s = 1; s <= 3000; ++s) t.push_back({s, kP, s % 53 + 100});
    for (TermId o = 1; o <= 2400; ++o) t.push_back({7, kP, 5000 + o});
    for (int i = 0; i < 1100; ++i) t.push_back({7, kP, 9999});
    for (TermId s = 1; s <= 400; ++s) {
      t.push_back({s, kQ, s % 3 == 0 ? s : s + 1});
    }
    return t;
  }

  static ResolvedPattern XPY(TermId p) {  // ?x <p> ?y
    ResolvedPattern r;
    r.p = p;
    r.var_s = 0;
    r.var_o = 1;
    r.schema = {0, 1};
    return r;
  }

  // Filtered == restricted unfiltered (multiset). Returns the filtered
  // table.
  BindingTable Check(const ResolvedPattern& pat, VarId var,
                     std::vector<TermId> keys) {
    const KeySet set(keys);
    BindingTable filtered = store_.Scan(pat, {var, &set});
    EXPECT_EQ(Multiset(filtered), Restrict(store_.Scan(pat), var, keys));
    return filtered;
  }

  NodeStore store_;
};

TEST_F(FilteredScanTest, SeekPathSortsByFilterVariable) {
  const ResolvedPattern pat = XPY(kP);
  // 6500 kP rows span seven pages: up to seven keys take the seek path.
  BindingTable by_x = Check(pat, 0, {3, 7, 2999});
  EXPECT_EQ(by_x.NumRows(), 1u + 3501u + 1u);
  EXPECT_EQ(by_x.sorted_by(), 0);
  BindingTable by_y = Check(pat, 1, {100, 152, 9999});
  EXPECT_EQ(by_y.sorted_by(), 1);  // seeks POS, keys ascending
  EXPECT_GT(by_y.NumRows(), 1100u);
  EXPECT_TRUE(std::is_sorted(by_y.Column(1).begin(), by_y.Column(1).end()));
}

TEST_F(FilteredScanTest, ManyUnsortedKeysProbeDuringDecode) {
  const ResolvedPattern pat = XPY(kP);
  std::vector<TermId> xs, ys;
  for (TermId v = 1; v <= 3000; v += 3) xs.push_back(v);
  // 6500 kP rows: 31 + 400 + 1 keys on ?y cost more half-block walk-ins
  // than the range has entries.
  for (TermId v = 100; v <= 130; ++v) ys.push_back(v);
  for (TermId v = 5001; v <= 5400; ++v) ys.push_back(v);
  ys.push_back(9999);
  ASSERT_GE(ys.size() * (kBlockEntries / 2), 6500u + kLeafEntries);
  // Rows arrive sorted on ?x, so ?x keys seek however many there are;
  // the order is the unfiltered one either way.
  EXPECT_EQ(Check(pat, 0, xs).sorted_by(), 0);
  // Rows do not arrive sorted on ?y: the range decodes once, probing, in
  // the unfiltered scan's order.
  BindingTable probed = Check(pat, 1, ys);
  EXPECT_EQ(probed.sorted_by(), 0);
  // 1766 subjects whose object is 100..130, 400 of subject 7's objects,
  // and the 1100 copies of (7, kP, 9999).
  EXPECT_EQ(probed.NumRows(), 1766u + 400u + 1100u);
}

TEST_F(FilteredScanTest, RepeatedAndVariablePredicatePatterns) {
  ResolvedPattern loop;  // ?x <q> ?x
  loop.p = kQ;
  loop.var_s = 0;
  loop.var_o = 0;
  loop.schema = {0};
  EXPECT_EQ(Check(loop, 0, {4}).NumRows(), 0u);  // 4 -> 5 is no loop
  EXPECT_EQ(Check(loop, 0, {6}).NumRows(), 1u);
  std::vector<TermId> many;
  for (TermId v = 1; v <= 400; ++v) many.push_back(v);
  EXPECT_EQ(Check(loop, 0, many).NumRows(), 133u);

  ResolvedPattern all;  // ?s ?p ?o
  all.var_s = 0;
  all.var_p = 2;
  all.var_o = 1;
  all.schema = {0, 1, 2};
  EXPECT_EQ(Check(all, 2, {kQ}).NumRows(), 400u);
  EXPECT_EQ(Check(all, 0, {7}).NumRows(), 3501u + 1u);
  EXPECT_EQ(Check(all, 1, {9999}).NumRows(), 1100u);
  Check(all, 0, many);
  Check(all, 1, many);
}

TEST_F(FilteredScanTest, EmptyAndAbsentKeys) {
  const ResolvedPattern pat = XPY(kP);
  EXPECT_EQ(Check(pat, 0, {}).NumRows(), 0u);
  EXPECT_EQ(Check(pat, 1, {42, 4242, 424242}).NumRows(), 0u);
  std::vector<TermId> absent;
  for (TermId v = 100000; v < 100100; ++v) absent.push_back(v);
  EXPECT_EQ(Check(pat, 0, absent).NumRows(), 0u);
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() {
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
    assignment_ = hash_.PartitionData(*graph_, 3);
    cluster_ = std::make_unique<Cluster>(*graph_, assignment_);
    estimator_ = std::make_unique<CardinalityEstimator>(
        *jg_, ComputeStatisticsFromGraph(*jg_, *graph_));
    builder_ = std::make_unique<PlanBuilder>(*estimator_,
                                             CostModel(CostParams{}));
  }

  std::set<std::vector<TermId>> RowsOf(const BindingTable& t) {
    // Re-order columns to ascending VarId to compare with the reference.
    std::vector<VarId> vars = t.schema();
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
  PartitionAssignment assignment_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<CardinalityEstimator> estimator_;
  std::unique_ptr<PlanBuilder> builder_;
};

TEST_F(ExecutorTest, RepartitionPlanMatchesReference) {
  PlanNodePtr plan = builder_->Join(
      JoinMethod::kRepartition, jg_->FindVar("y"),
      {builder_->Join(JoinMethod::kRepartition, jg_->FindVar("x"),
                      {builder_->Scan(0), builder_->Scan(2)}),
       builder_->Scan(1)});
  Executor exec(*cluster_, *jg_, CostParams{});
  ExecMetrics m;
  auto result = exec.Execute(*plan, &m);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowsOf(*result), testing::ReferenceEvaluate(*jg_, *graph_));
  EXPECT_GT(m.rows_scanned, 0u);
  EXPECT_GT(m.rows_transferred, 0u);
  EXPECT_GT(m.measured_cost, 0.0);
  EXPECT_EQ(m.result_rows, result->NumRows());
}

TEST_F(ExecutorTest, BroadcastPlanMatchesReference) {
  PlanNodePtr plan = builder_->Join(
      JoinMethod::kBroadcast, jg_->FindVar("y"),
      {builder_->Join(JoinMethod::kBroadcast, jg_->FindVar("x"),
                      {builder_->Scan(0), builder_->Scan(2)}),
       builder_->Scan(1)});
  Executor exec(*cluster_, *jg_, CostParams{});
  auto result = exec.Execute(*plan, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(RowsOf(*result), testing::ReferenceEvaluate(*jg_, *graph_));
}

TEST_F(ExecutorTest, LocalJoinOnCollocatedStar) {
  // {tp0, tp2} share ?x (hash-collocated): a local join is correct.
  JoinGraph star(std::vector<TriplePattern>{Tp("?x", "worksFor", "?y"),
                                            Tp("?x", "likes", "?z")});
  CardinalityEstimator est(star,
                           ComputeStatisticsFromGraph(star, *graph_));
  PlanBuilder builder(est, CostModel(CostParams{}));
  TpSet both = TpSet::FullSet(2);
  PlanNodePtr plan = builder.LocalJoinAll(both);
  Executor exec(*cluster_, star, CostParams{});
  ExecMetrics m;
  auto result = exec.Execute(*plan, &m);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(m.rows_transferred, 0u);  // local joins move nothing
  // Reference over the same two patterns.
  std::set<std::vector<TermId>> expected =
      testing::ReferenceEvaluate(star, *graph_);
  std::set<std::vector<TermId>> got;
  for (std::size_t r = 0; r < result->NumRows(); ++r) {
    std::vector<TermId> row;
    for (VarId v = 0; v < star.num_vars(); ++v) {
      row.push_back(result->At(r, result->ColumnOf(v)));
    }
    got.insert(row);
  }
  EXPECT_EQ(got, expected);
}

// k-way (k=3) distributed joins on a star dataset: every input shares ?w.
class KWayExecutorTest : public ::testing::Test {
 protected:
  KWayExecutorTest() {
    auto g = ParseNTriplesString(
        "<w1> <a> <a1> .\n<w1> <a> <a2> .\n<w2> <a> <a3> .\n"
        "<w1> <b> <b1> .\n<w2> <b> <b2> .\n<w3> <b> <b3> .\n"
        "<w1> <c> <c1> .\n<w2> <c> <c2> .\n");
    graph_ = std::make_unique<RdfGraph>(std::move(*g));
    jg_ = std::make_unique<JoinGraph>(std::vector<TriplePattern>{
        Tp("?w", "a", "?x"), Tp("?w", "b", "?y"), Tp("?w", "c", "?z")});
    HashSoPartitioner hash;
    cluster_ = std::make_unique<Cluster>(*graph_,
                                         hash.PartitionData(*graph_, 3));
    estimator_ = std::make_unique<CardinalityEstimator>(
        *jg_, ComputeStatisticsFromGraph(*jg_, *graph_));
    builder_ = std::make_unique<PlanBuilder>(*estimator_,
                                             CostModel(CostParams{}));
  }

  std::set<std::vector<TermId>> Reference() {
    return testing::ReferenceEvaluate(*jg_, *graph_);
  }
  std::set<std::vector<TermId>> Rows(const BindingTable& t) {
    std::set<std::vector<TermId>> rows;
    for (std::size_t r = 0; r < t.NumRows(); ++r) {
      std::vector<TermId> row;
      for (VarId v = 0; v < jg_->num_vars(); ++v) {
        row.push_back(t.At(r, t.ColumnOf(v)));
      }
      rows.insert(row);
    }
    return rows;
  }

  std::unique_ptr<RdfGraph> graph_;
  std::unique_ptr<JoinGraph> jg_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<CardinalityEstimator> estimator_;
  std::unique_ptr<PlanBuilder> builder_;
};

TEST_F(KWayExecutorTest, ThreeWayRepartition) {
  // Expected matches: w1 x {a1,a2} x b1 x c1 and w2 x a3 x b2 x c2.
  PlanNodePtr plan = builder_->Join(
      JoinMethod::kRepartition, jg_->FindVar("w"),
      {builder_->Scan(0), builder_->Scan(1), builder_->Scan(2)});
  Executor exec(*cluster_, *jg_, CostParams{});
  auto result = exec.Execute(*plan, nullptr);
  ASSERT_TRUE(result.ok());
  auto expected = Reference();
  EXPECT_EQ(expected.size(), 3u);
  EXPECT_EQ(Rows(*result), expected);
}

TEST_F(KWayExecutorTest, ThreeWayBroadcast) {
  PlanNodePtr plan = builder_->Join(
      JoinMethod::kBroadcast, jg_->FindVar("w"),
      {builder_->Scan(0), builder_->Scan(1), builder_->Scan(2)});
  Executor exec(*cluster_, *jg_, CostParams{});
  ExecMetrics m;
  auto result = exec.Execute(*plan, &m);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Rows(*result), Reference());
  EXPECT_EQ(m.distributed_joins, 1u);
  // Two smaller inputs broadcast to 3 nodes each.
  EXPECT_GT(m.rows_transferred, 0u);
}

TEST_F(KWayExecutorTest, ThreeWayLocalUnderHash) {
  // All patterns share ?w, so the star is hash-local.
  PlanNodePtr plan = builder_->LocalJoinAll(TpSet::FullSet(3));
  Executor exec(*cluster_, *jg_, CostParams{});
  ExecMetrics m;
  auto result = exec.Execute(*plan, &m);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Rows(*result), Reference());
  EXPECT_EQ(m.rows_transferred, 0u);
  EXPECT_EQ(m.distributed_joins, 0u);
}

TEST_F(ExecutorTest, ParallelNodesMatchSerialExecution) {
  PlanNodePtr plan = builder_->Join(
      JoinMethod::kRepartition, jg_->FindVar("y"),
      {builder_->Join(JoinMethod::kBroadcast, jg_->FindVar("x"),
                      {builder_->Scan(0), builder_->Scan(2)}),
       builder_->Scan(1)});
  Executor serial(*cluster_, *jg_, CostParams{}, /*parallel_nodes=*/false);
  Executor parallel(*cluster_, *jg_, CostParams{}, /*parallel_nodes=*/true);
  ExecMetrics ms, mp;
  auto rs = serial.Execute(*plan, &ms);
  auto rp = parallel.Execute(*plan, &mp);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(RowsOf(*rs), RowsOf(*rp));
  EXPECT_EQ(ms.rows_scanned, mp.rows_scanned);
  EXPECT_EQ(ms.rows_transferred, mp.rows_transferred);
  EXPECT_DOUBLE_EQ(ms.measured_cost, mp.measured_cost);
}

TEST_F(ExecutorTest, ProjectionSelectsQueryVariables) {
  PlanNodePtr plan = builder_->Join(
      JoinMethod::kRepartition, jg_->FindVar("y"),
      {builder_->Join(JoinMethod::kRepartition, jg_->FindVar("x"),
                      {builder_->Scan(0), builder_->Scan(2)}),
       builder_->Scan(1)});
  Executor exec(*cluster_, *jg_, CostParams{});
  ParsedQuery pq;
  pq.select_vars = {"u"};
  auto result =
      ExecuteAndProject(exec, *plan, pq, *jg_, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_cols(), 1);
  // Matches: (s1,d1,u1,s2) and (s2,d1,u1,s3); the only university is u1.
  EXPECT_EQ(result->NumRows(), 1u);
}

// A SELECT variable the body never binds is an invalid query: it fails
// before anything is scanned, not after the whole query ran.
TEST_F(ExecutorTest, UnknownSelectVariableFailsBeforeExecuting) {
  PlanNodePtr plan = builder_->Join(
      JoinMethod::kRepartition, jg_->FindVar("y"),
      {builder_->Scan(0), builder_->Scan(1)});
  Executor exec(*cluster_, *jg_, CostParams{});
  ParsedQuery pq;
  pq.select_vars = {"u", "zzz"};
  ExecMetrics m;
  auto result = ExecuteAndProject(exec, *plan, pq, *jg_, &m);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(m.rows_scanned, 0u);
  EXPECT_TRUE(m.failed);
}

TEST_F(ExecutorTest, RecordingPassRecordsEveryOperator) {
  PlanNodePtr plan = builder_->Join(
      JoinMethod::kRepartition, jg_->FindVar("y"),
      {builder_->Join(JoinMethod::kBroadcast, jg_->FindVar("x"),
                      {builder_->Scan(0), builder_->Scan(2)}),
       builder_->Scan(1)});
  Executor plain(*cluster_, *jg_, CostParams{});
  ExecMetrics mp;
  ASSERT_TRUE(plain.Execute(*plan, &mp).ok());
  EXPECT_TRUE(mp.op_cards.empty());

  Executor recording(*cluster_, *jg_, CostParams{});
  recording.set_record_op_cardinalities(true);
  ExecMetrics m;
  ASSERT_TRUE(recording.Execute(*plan, &m).ok());
  EXPECT_EQ(m.op_cards.size(), 5u);
  EXPECT_GT(m.rows_scanned, 0u);
}

TEST_F(ExecutorTest, RowsDecodedCoverRowsScanned) {
  PlanNodePtr plan = builder_->Join(
      JoinMethod::kRepartition, jg_->FindVar("y"),
      {builder_->Join(JoinMethod::kBroadcast, jg_->FindVar("x"),
                      {builder_->Scan(0), builder_->Scan(2)}),
       builder_->Scan(1)});
  for (bool parallel : {false, true}) {
    Executor ex(*cluster_, *jg_, CostParams{}, parallel);
    ExecMetrics m;
    ASSERT_TRUE(ex.Execute(*plan, &m).ok());
    EXPECT_GT(m.rows_scanned, 0u);
    EXPECT_GE(m.rows_decoded, m.rows_scanned);
  }
}

// ---------------------------------------------------------------------------
// Dedup elision (DESIGN.md section 13) on replicated hash-SO data: every
// gather whose input is disjoint across nodes skips its dedup, every
// other gather still runs it, and each result is exactly the distinct
// MatchBgp bindings (SortedRows keeps duplicates, so a missed dedup
// shows). dedup_rows says which gathers hashed their rows.

class DedupElisionTest : public ::testing::Test {
 protected:
  // A chain a_i -p-> b_i -q-> c_j -r-> d: 20 p edges fan out to 60 q
  // paths over 3 shared c_j, which hash-SO replicates onto c_j's node.
  DedupElisionTest() {
    std::string nt;
    for (int i = 0; i < 20; ++i) {
      const std::string a = "<a" + std::to_string(i) + ">";
      const std::string b = "<b" + std::to_string(i) + ">";
      nt += a + " <p> " + b + " .\n";
      for (int j = 0; j < 3; ++j) {
        nt += b + " <q> <c" + std::to_string(j) + "> .\n";
      }
    }
    for (int j = 0; j < 3; ++j) nt += "<c" + std::to_string(j) + "> <r> <d> .\n";
    auto g = ParseNTriplesString(nt);
    graph_ = std::make_unique<RdfGraph>(std::move(*g));
    jg_ = std::make_unique<JoinGraph>(std::vector<TriplePattern>{
        Tp("?x", "p", "?y"), Tp("?y", "q", "?z"), Tp("?z", "r", "?w")});
    cluster_ = std::make_unique<Cluster>(
        *graph_, HashSoPartitioner().PartitionData(*graph_, 3));
    estimator_ = std::make_unique<CardinalityEstimator>(
        *jg_, ComputeStatisticsFromGraph(*jg_, *graph_));
    builder_ = std::make_unique<PlanBuilder>(*estimator_,
                                             CostModel(CostParams{}));
  }

  // Executes `plan`, which covers the first `num_tps` patterns, and
  // checks its rows against MatchBgp over those patterns. A prefix of
  // the patterns numbers its variables as the whole query does.
  ExecMetrics Run(const PlanNode& plan, int num_tps) {
    JoinGraph sub(std::vector<TriplePattern>(
        jg_->patterns().begin(), jg_->patterns().begin() + num_tps));
    Executor exec(*cluster_, *jg_, CostParams{});
    ExecMetrics m;
    Result<BindingTable> r = exec.Execute(plan, &m);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return m;
    EXPECT_EQ(testing::SortedRows(*r, sub), testing::MatchRows(sub, *graph_));
    EXPECT_EQ(m.result_rows, r->NumRows());
    return m;
  }

  VarId Var(const char* name) const { return jg_->FindVar(name); }

  std::unique_ptr<RdfGraph> graph_;
  std::unique_ptr<JoinGraph> jg_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<CardinalityEstimator> estimator_;
  std::unique_ptr<PlanBuilder> builder_;
};

TEST_F(DedupElisionTest, RepartitionRootSkipsTheFinalDedup) {
  PlanNodePtr plan = builder_->Join(JoinMethod::kRepartition, Var("y"),
                                    {builder_->Scan(0), builder_->Scan(1)});
  const ExecMetrics m = Run(*plan, 2);
  EXPECT_EQ(m.result_rows, 60u);
  // Replicated scan rows are deduplicated where they land; the routed
  // output is disjoint, so the final gather hashes nothing.
  EXPECT_EQ(m.dedup_rows, m.rows_transferred);
}

TEST_F(DedupElisionTest, RepartitionOfARepartitionSkipsItsRoute) {
  PlanNodePtr plan = builder_->Join(
      JoinMethod::kRepartition, Var("z"),
      {builder_->Join(JoinMethod::kRepartition, Var("y"),
                      {builder_->Scan(0), builder_->Scan(1)}),
       builder_->Scan(2)});
  const ExecMetrics m = Run(*plan, 3);
  EXPECT_EQ(m.result_rows, 60u);
  // Edges in routing order: the inner join's two scans, then the outer
  // join's repartitioned input and its scan. Only the scans' routes
  // are deduplicated.
  ASSERT_EQ(m.edges.size(), 4u);
  EXPECT_EQ(m.edges[2].rows, 60u);
  EXPECT_EQ(m.dedup_rows,
            m.edges[0].rows + m.edges[1].rows + m.edges[3].rows);
}

TEST_F(DedupElisionTest, BroadcastKeepingADisjointInputSkipsTheFinalDedup) {
  PlanNodePtr plan = builder_->Join(
      JoinMethod::kBroadcast, Var("z"),
      {builder_->Join(JoinMethod::kRepartition, Var("y"),
                      {builder_->Scan(0), builder_->Scan(1)}),
       builder_->Scan(2)});
  const ExecMetrics m = Run(*plan, 3);
  EXPECT_EQ(m.result_rows, 60u);
  // The 60-row repartitioned input stays partitioned; the r scan (at
  // most 6 replicated rows) is gathered and deduplicated before it is
  // broadcast, and nothing else is hashed.
  ASSERT_EQ(m.edges.size(), 3u);
  EXPECT_EQ(m.edges[2].op, "broadcast");
  std::uint64_t r_rows = 0;
  for (int i = 0; i < cluster_->num_nodes(); ++i) {
    BindingTable scan = cluster_->node(i).Scan(
        BindPattern(jg_->pattern(2), *jg_, graph_->dict()));
    r_rows += scan.NumRows();
  }
  EXPECT_GT(r_rows, 3u);  // replicated
  EXPECT_EQ(m.dedup_rows, m.edges[0].rows + m.edges[1].rows + r_rows);
}

TEST_F(DedupElisionTest, LocalAndBroadcastRootsOverScansStillDedup) {
  // Hash-SO co-locates ?y's p and q triples, but a row can also form on
  // the node holding both a_i and c_j: the final gather must dedup.
  PlanNodePtr local = builder_->LocalJoinAll(TpSet::FullSet(2));
  const ExecMetrics ml = Run(*local, 2);
  EXPECT_EQ(ml.result_rows, 60u);
  EXPECT_GT(ml.dedup_rows, ml.result_rows);
  EXPECT_EQ(ml.dedup_rows, std::accumulate(ml.node_rows_joined.begin(),
                                           ml.node_rows_joined.end(),
                                           std::uint64_t{0}));

  PlanNodePtr broadcast = builder_->Join(
      JoinMethod::kBroadcast, Var("y"), {builder_->Scan(0), builder_->Scan(1)});
  const ExecMetrics mb = Run(*broadcast, 2);
  EXPECT_EQ(mb.result_rows, 60u);
  EXPECT_GT(mb.dedup_rows, mb.result_rows);
}

// ---------------------------------------------------------------------------
// The evaluation order and the reach rule of sideways information passing
// (DESIGN.md section 13) on one node, where every scanned row counts
// once: 400 x_i knows y_(i mod 100), 100 y_j with a name, and two x of
// type Rare.

class SipOrderTest : public ::testing::Test {
 protected:
  SipOrderTest() {
    std::string nt;
    for (int i = 0; i < 400; ++i) {
      nt += "<x" + std::to_string(i) + "> <knows> <y" +
            std::to_string(i % 100) + "> .\n";
    }
    for (int j = 0; j < 100; ++j) {
      nt += "<y" + std::to_string(j) + "> <name> <n" + std::to_string(j) +
            "> .\n";
    }
    nt += "<x0> <type> <Rare> .\n<x1> <type> <Rare> .\n";
    auto g = ParseNTriplesString(nt);
    graph_ = std::make_unique<RdfGraph>(std::move(*g));
    jg_ = std::make_unique<JoinGraph>(std::vector<TriplePattern>{
        Tp("?x", "type", "Rare"), Tp("?x", "knows", "?y"),
        Tp("?y", "name", "?n")});
    cluster_ = std::make_unique<Cluster>(
        *graph_, HashSoPartitioner().PartitionData(*graph_, 1));
    estimator_ = std::make_unique<CardinalityEstimator>(
        *jg_, ComputeStatisticsFromGraph(*jg_, *graph_));
    builder_ = std::make_unique<PlanBuilder>(*estimator_,
                                             CostModel(CostParams{}));
  }

  // Executes `plan`, checks its rows against MatchBgp and returns the
  // rows its scans read.
  std::uint64_t Scanned(const PlanNode& plan) {
    Executor exec(*cluster_, *jg_, CostParams{});
    ExecMetrics m;
    Result<BindingTable> r = exec.Execute(plan, &m);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return 0;
    EXPECT_EQ(testing::SortedRows(*r, *jg_), testing::MatchRows(*jg_, *graph_));
    EXPECT_EQ(m.result_rows, 2u);
    return m.rows_scanned;
  }

  VarId Var(const char* name) const { return jg_->FindVar(name); }

  std::unique_ptr<RdfGraph> graph_;
  std::unique_ptr<JoinGraph> jg_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<CardinalityEstimator> estimator_;
  std::unique_ptr<PlanBuilder> builder_;
};

TEST_F(SipOrderTest, FewKeyFiltersAndExactScansOrderTheChildren) {
  const PlanNodePtr rare = builder_->Scan(0);
  const PlanNodePtr knows = builder_->Scan(1);
  const PlanNodePtr name = builder_->Scan(2);
  ASSERT_EQ(rare->cardinality, 2);
  ASSERT_LT(name->cardinality, knows->cardinality);
  const PlanNodePtr pairs =
      builder_->Join(JoinMethod::kRepartition, Var("y"), {knows, name});

  // The root evaluates the Rare scan first and pushes its two ?x keys
  // into `pairs`. Only `knows` binds ?x, so with those keys it is the
  // smaller child although its estimate is the larger: it runs first,
  // and its two ?y keys filter `name`. Ordered by estimate, `name` would
  // be scanned whole (2 + 100 + 2 rows).
  EXPECT_EQ(Scanned(*builder_->Join(JoinMethod::kBroadcast, Var("x"),
                                    {rare, pairs})),
            6u);

  // The same join estimated 100x too low. The two Rare keys are measured
  // against the exact 400-row scan of `knows` they reach, not against
  // the join's estimate, which would block them (2 x kFilterRatio rows
  // above it) and leave both scans of `pairs` read whole (2 + 100 + 400
  // rows).
  auto low = std::make_shared<PlanNode>(*pairs);
  low->cardinality = pairs->cardinality / 100;
  ASSERT_LT(low->cardinality, 2 * 4);
  ASSERT_GT(low->cardinality, rare->cardinality);
  EXPECT_EQ(Scanned(*builder_->Join(JoinMethod::kBroadcast, Var("x"),
                                    {rare, low})),
            6u);
}

TEST(ClusterDeathTest, RejectsATripleTwiceOnOneNode) {
  auto g = ParseNTriplesString("<s> <p> <o> .\n<s> <p> <o2> .\n");
  ASSERT_TRUE(g.ok());
  PartitionAssignment pa;
  pa.num_nodes = 2;
  pa.node_triples = {{0, 1}, {1, 1}};
  EXPECT_DEATH(Cluster(*g, pa), "PARQO_CHECK failed");
}

// ---------------------------------------------------------------------------
// Sideways information passing end to end: LUBM L1-L10 and the WatDiv
// templates, planned by every algorithm and run serial and parallel on 4
// nodes. The filtered run must return exactly the rows of the unfiltered
// recording run and of MatchBgp, and the recording run's op_cards must
// report the unreduced cardinalities PlanNode::cardinality predicts.

constexpr int kSipNodes = 4;

const std::vector<Algorithm> kAllAlgorithms{
    Algorithm::kTdCmd,  Algorithm::kTdCmdp,  Algorithm::kHgrTdCmd,
    Algorithm::kTdAuto, Algorithm::kMsc,     Algorithm::kDpBushy,
    Algorithm::kBinaryDp};

class SipSweepTest : public ::testing::Test {
 protected:
  struct World {
    std::unique_ptr<RdfGraph> graph;
    std::unique_ptr<Cluster> cluster;
  };

  static World MakeWorld(RdfGraph graph) {
    World w;
    w.graph = std::make_unique<RdfGraph>(std::move(graph));
    w.cluster = std::make_unique<Cluster>(
        *w.graph, HashSoPartitioner().PartitionData(*w.graph, kSipNodes));
    return w;
  }

  static const World& Lubm() {
    // parqo-lint: allow(naked-new) leaked cached dataset
    static const World& w = *new World(MakeWorld([] {
      LubmConfig cfg;
      cfg.universities = 2;
      return GenerateLubm(cfg);
    }()));
    return w;
  }

  static const World& Watdiv() {
    // parqo-lint: allow(naked-new) leaked cached dataset
    static const World& w = *new World(MakeWorld([] {
      WatdivDataConfig cfg;
      cfg.entities_per_class = 100;
      cfg.density = 1.0;
      return GenerateWatdivData(cfg);
    }()));
    return w;
  }

  // Runs every algorithm's plan serial and parallel, filtered and
  // recording. Returns the largest share of its unfiltered twin's rows
  // that a filtered run scanned.
  double Sweep(const std::vector<TriplePattern>& patterns, const World& w) {
    HashSoPartitioner hash;
    PreparedQuery pq(patterns, hash, StatsFromData(*w.graph));
    const JoinGraph& jg = pq.join_graph();
    const std::vector<std::vector<TermId>> truth =
        testing::MatchRows(JoinGraph(patterns), *w.graph);
    OptimizeOptions options;
    options.cost_params.num_nodes = kSipNodes;
    std::map<std::vector<int>, std::uint64_t> sub_counts;
    std::set<std::string> seen_plans;
    double worst = 0;
    for (Algorithm algorithm : kAllAlgorithms) {
      options.deadline = Deadline::AfterSeconds(60);
      OptimizeResult r = Optimize(algorithm, pq.inputs(), options);
      if (r.timed_out) {
        ADD_FAILURE() << ToString(algorithm) << ": timed out";
        continue;
      }
      // Algorithms often agree on a plan; sweep each plan once.
      if (!seen_plans.insert(PlanToString(*r.plan, jg)).second) continue;
      for (bool parallel : {false, true}) {
        SCOPED_TRACE(ToString(algorithm) + (parallel ? " parallel" : " serial"));
        Executor recording(*w.cluster, jg, options.cost_params, parallel);
        recording.set_record_op_cardinalities(true);
        Executor filtered(*w.cluster, jg, options.cost_params, parallel);
        ExecMetrics mr, mf;
        Result<BindingTable> rr = recording.Execute(*r.plan, &mr);
        Result<BindingTable> rf = filtered.Execute(*r.plan, &mf);
        if (!rr.ok() || !rf.ok()) {
          ADD_FAILURE() << rr.status().ToString() << " / "
                        << rf.status().ToString();
          continue;
        }
        EXPECT_EQ(testing::SortedRows(*rf, jg), truth);
        EXPECT_EQ(testing::SortedRows(*rr, jg), truth);
        EXPECT_LE(mf.rows_scanned, mr.rows_scanned);
        if (mr.rows_scanned > 0) {
          worst = std::max(worst, static_cast<double>(mf.rows_scanned) /
                                      static_cast<double>(mr.rows_scanned));
        }
        EXPECT_TRUE(mf.op_cards.empty());
        // Recording runs unfiltered: each operator's actual is the
        // distinct solution count of its sub-BGP.
        for (const ExecMetrics::OpCardinality& oc : mr.op_cards) {
          auto [it, fresh] = sub_counts.try_emplace(oc.tps, 0);
          if (fresh) {
            std::vector<TriplePattern> sub;
            for (int tp : oc.tps) sub.push_back(jg.pattern(tp));
            it->second = testing::MatchRows(JoinGraph(sub), *w.graph).size();
          }
          EXPECT_EQ(oc.actual, it->second) << oc.op;
        }
      }
    }
    return worst;
  }
};

TEST_F(SipSweepTest, LubmQueriesMatchUnfilteredAndMatchBgp) {
  for (const BenchmarkQuery& bq : AllBenchmarkQueries()) {
    if (!bq.lubm) continue;
    SCOPED_TRACE(bq.name);
    Result<ParsedQuery> parsed = ParseSparql(bq.sparql);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const double worst = Sweep(parsed->patterns, Lubm());
    // The filters must fire where a tiny input meets big scans: every
    // plan of L3, L5, L6, L9 and L10, serial and parallel, scans
    // strictly less.
    if (bq.name == "L3" || bq.name == "L5" || bq.name == "L6" ||
        bq.name == "L9" || bq.name == "L10") {
      EXPECT_LT(worst, 1.0);
    }
    // L9's and L10's constants match nothing in LUBM-2. The empty scan
    // that reads the constant is the smallest child wherever it sits, so
    // its empty key set prunes every other scan.
    if (bq.name == "L9" || bq.name == "L10") {
      EXPECT_EQ(worst, 0.0);
    }
  }
}

TEST_F(SipSweepTest, WatdivTemplatesMatchUnfilteredAndMatchBgp) {
  Rng rng(2017);
  for (const WatdivTemplate& t : GenerateWatdivTemplates(124, rng)) {
    std::string name = "T";
    name += std::to_string(t.id);
    SCOPED_TRACE(name);
    Sweep(t.patterns, Watdiv());
  }
}

// A sibling that returns zero rows pushes an empty key set: the later
// children scan nothing, serial and parallel runs agree row for row, and
// a seeded fault plan replays to the same (empty) result or fails
// cleanly.
TEST_F(SipSweepTest, EmptySiblingFilterSerialParallelAndFaults) {
  const World& w = Lubm();
  Result<ParsedQuery> parsed = ParseSparql(
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "SELECT * WHERE {\n"
      "  ?x ub:advisor <http://www.Department0.University0.edu> .\n"
      "  ?x ub:takesCourse ?y .\n"
      "  ?y rdf:type ub:GraduateCourse .\n"
      "  ?x rdf:type ub:GraduateStudent . }");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  HashSoPartitioner hash;
  PreparedQuery pq(parsed->patterns, hash, StatsFromData(*w.graph));
  OptimizeOptions options;
  options.cost_params.num_nodes = kSipNodes;
  for (Algorithm algorithm : kAllAlgorithms) {
    PlanNodePtr plan = Optimize(algorithm, pq.inputs(), options).plan;
    ASSERT_NE(plan, nullptr);
    SCOPED_TRACE(ToString(algorithm));
    Executor recording(*w.cluster, pq.join_graph(), options.cost_params);
    recording.set_record_op_cardinalities(true);
    ExecMetrics mr;
    ASSERT_TRUE(recording.Execute(*plan, &mr).ok());
    EXPECT_EQ(mr.result_rows, 0u);
    std::vector<BindingTable> results;
    std::vector<ExecMetrics> metrics(2);
    for (bool parallel : {false, true}) {
      Executor exec(*w.cluster, pq.join_graph(), options.cost_params,
                    parallel);
      Result<BindingTable> r = exec.Execute(*plan, &metrics[results.size()]);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      results.push_back(std::move(*r));
    }
    EXPECT_EQ(results[0].NumRows(), 0u);
    EXPECT_TRUE(results[0] == results[1]);
    EXPECT_EQ(metrics[0].rows_scanned, metrics[1].rows_scanned);
    EXPECT_LT(metrics[0].rows_scanned, mr.rows_scanned);

    RetryPolicy retry;
    retry.max_attempts = 6;
    FaultPlanConfig config;
    config.crash_probability = 0.3;
    config.slow_probability = 0.25;
    config.slow_seconds = 1e-4;
    config.drop_probability = 0.1;
    for (std::uint64_t seed : {2017ull, 31337ull, 987654321ull}) {
      SCOPED_TRACE(seed);
      std::vector<Result<BindingTable>> runs;
      for (int replay = 0; replay < 2; ++replay) {
        FaultPlan fault(seed, kSipNodes, config);
        Executor exec(*w.cluster, pq.join_graph(), options.cost_params,
                      /*parallel_nodes=*/false, retry);
        FaultScope scope(&fault);
        ExecMetrics m;
        runs.push_back(exec.Execute(*plan, &m));
        EXPECT_EQ(m.failed, !runs.back().ok());
      }
      for (const Result<BindingTable>& r : runs) {
        ASSERT_EQ(r.ok(), runs[0].ok());
        if (r.ok()) {
          EXPECT_EQ(r->NumRows(), 0u);
        } else {
          EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
        }
      }
    }
  }
}

// Partition scratch is reused by every operator of a run. A crash is
// detected before its work item starts, and the item is retried on a
// survivor with the scratch of the partition it serves: every recovered
// run must equal the fault-free table row for row, serial or parallel.
TEST_F(SipSweepTest, FaultReexecutionReusesPartitionScratch) {
  const World& w = Lubm();
  std::uint64_t recovered = 0;
  for (const BenchmarkQuery& bq : AllBenchmarkQueries()) {
    if (!bq.lubm) continue;
    SCOPED_TRACE(bq.name);
    Result<ParsedQuery> parsed = ParseSparql(bq.sparql);
    ASSERT_TRUE(parsed.ok());
    HashSoPartitioner hash;
    PreparedQuery pq(parsed->patterns, hash, StatsFromData(*w.graph));
    OptimizeOptions options;
    options.cost_params.num_nodes = kSipNodes;
    PlanNodePtr plan = Optimize(Algorithm::kTdAuto, pq.inputs(), options).plan;
    ASSERT_NE(plan, nullptr);
    for (bool parallel : {false, true}) {
      Executor clean(*w.cluster, pq.join_graph(), options.cost_params,
                     parallel);
      Result<BindingTable> want = clean.Execute(*plan, nullptr);
      ASSERT_TRUE(want.ok());
      RetryPolicy retry;
      retry.max_attempts = 8;
      FaultPlanConfig config;
      config.crash_probability = 0.5;
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        FaultPlan fault(seed, kSipNodes, config);
        Executor exec(*w.cluster, pq.join_graph(), options.cost_params,
                      parallel, retry);
        FaultScope scope(&fault);
        ExecMetrics m;
        Result<BindingTable> got = exec.Execute(*plan, &m);
        if (!got.ok()) continue;
        EXPECT_TRUE(*got == *want) << "seed " << seed;
        if (m.operators_reexecuted > 0) ++recovered;
      }
    }
  }
  EXPECT_GT(recovered, 0u);
}

// An operator's output is one table holding node 0's rows, then node
// 1's, and so on. The recording pass reports each operator's node
// offsets: summed over the scans they must reproduce node_rows_scanned,
// summed over the joins node_rows_joined, and a scan's range must hold
// exactly what that partition's store returns for the pattern. Checked
// fault-free and with crashed partitions re-executed on survivors.
TEST_F(SipSweepTest, NodeOffsetsReproduceNodeRowCounts) {
  const World& w = Lubm();
  std::uint64_t recovered = 0;
  for (const BenchmarkQuery& bq : AllBenchmarkQueries()) {
    if (!bq.lubm) continue;
    SCOPED_TRACE(bq.name);
    Result<ParsedQuery> parsed = ParseSparql(bq.sparql);
    ASSERT_TRUE(parsed.ok());
    HashSoPartitioner hash;
    PreparedQuery pq(parsed->patterns, hash, StatsFromData(*w.graph));
    const JoinGraph& jg = pq.join_graph();
    OptimizeOptions options;
    options.cost_params.num_nodes = kSipNodes;
    PlanNodePtr plan = Optimize(Algorithm::kTdAuto, pq.inputs(), options).plan;
    ASSERT_NE(plan, nullptr);
    RetryPolicy retry;
    retry.max_attempts = 8;
    FaultPlanConfig config;
    config.crash_probability = 0.5;
    // Seed 0 runs fault-free.
    for (std::uint64_t seed = 0; seed <= 4; ++seed) {
      SCOPED_TRACE(seed);
      FaultPlan fault(seed, kSipNodes, config);
      Executor exec(*w.cluster, jg, options.cost_params, false, retry);
      exec.set_record_op_cardinalities(true);
      ExecMetrics m;
      Result<BindingTable> r = [&] {
        if (seed == 0) return exec.Execute(*plan, &m);
        FaultScope scope(&fault);
        return exec.Execute(*plan, &m);
      }();
      if (!r.ok()) continue;
      if (m.operators_reexecuted > 0) ++recovered;
      std::vector<std::uint64_t> scanned(kSipNodes, 0), joined(kSipNodes, 0);
      for (const ExecMetrics::OpCardinality& oc : m.op_cards) {
        SCOPED_TRACE(oc.op);
        ASSERT_EQ(oc.node_offsets.size(), kSipNodes + 1u);
        EXPECT_EQ(oc.node_offsets[0], 0u);
        const bool scan = oc.op == "scan";
        for (int p = 0; p < kSipNodes; ++p) {
          ASSERT_LE(oc.node_offsets[p], oc.node_offsets[p + 1]);
          const std::uint64_t rows =
              oc.node_offsets[p + 1] - oc.node_offsets[p];
          (scan ? scanned : joined)[p] += rows;
          if (scan) {
            ASSERT_EQ(oc.tps.size(), 1u);
            EXPECT_EQ(rows, w.cluster->node(p)
                                .Scan(BindPattern(jg.pattern(oc.tps[0]), jg,
                                                  w.graph->dict()))
                                .NumRows());
          }
        }
      }
      EXPECT_EQ(scanned, m.node_rows_scanned);
      EXPECT_EQ(joined, m.node_rows_joined);
    }
  }
  EXPECT_GT(recovered, 0u);
}

// Repartition routing is one counting-sort scatter per input. A target
// receives source node 0's rows in row order, then node 1's, and so on;
// a reference that routes row by row in that order and joins per target
// must give the same table row for row, including targets that receive
// nothing.
TEST(RepartitionScatterTest, TargetsGetSourceNodeOrderThenRowOrder) {
  std::string nt;
  for (int i = 0; i < 60; ++i) {
    const std::string b = "<b" + std::to_string(i % 4) + ">";
    nt += "<a" + std::to_string(i) + "> <p> " + b + " .\n";
    nt += b + " <q> <c" + std::to_string(i % 7) + "> .\n";
  }
  auto g = ParseNTriplesString(nt);
  ASSERT_TRUE(g.ok());
  const RdfGraph& graph = *g;
  const JoinGraph jg(std::vector<TriplePattern>{Tp("?x", "p", "?y"),
                                                Tp("?y", "q", "?z")});
  constexpr int kNodes = 10;
  const Cluster cluster(graph,
                        HashSoPartitioner().PartitionData(graph, kNodes));
  const VarId y = jg.FindVar("y");

  std::vector<BindingTable> routed[2];
  for (int c = 0; c < 2; ++c) {
    const ResolvedPattern rp = BindPattern(jg.pattern(c), jg, graph.dict());
    routed[c].assign(kNodes, BindingTable(rp.schema));
    for (int src = 0; src < kNodes; ++src) {
      const BindingTable t = cluster.node(src).Scan(rp);
      const int col = t.ColumnOf(y);
      for (std::size_t r = 0; r < t.NumRows(); ++r) {
        std::vector<TermId> row;
        for (int k = 0; k < t.num_cols(); ++k) row.push_back(t.At(r, k));
        routed[c][HashToNode(t.At(r, col), kNodes)].AppendRow(row);
      }
    }
    for (BindingTable& t : routed[c]) t.Deduplicate();
  }
  BindingTable want(MergeSchemas(routed[0][0].schema(),
                                 routed[1][0].schema()));
  int empty = 0;
  for (int t = 0; t < kNodes; ++t) {
    empty += routed[0][t].NumRows() == 0 ? 1 : 0;
    want.AppendFrom(BatchHashJoin(routed[0][t], routed[1][t]));
  }
  ASSERT_GT(empty, 0);  // four ?y values cannot reach ten targets
  ASSERT_GT(want.NumRows(), 0u);

  CardinalityEstimator est(jg, ComputeStatisticsFromGraph(jg, graph));
  PlanBuilder builder(est, CostModel(CostParams{}));
  PlanNodePtr plan = builder.Join(JoinMethod::kRepartition, y,
                                  {builder.Scan(0), builder.Scan(1)});
  for (bool parallel : {false, true}) {
    // The recording pass scans unfiltered and in plan order, so the
    // routed inputs are exactly the reference's.
    Executor exec(cluster, jg, CostParams{}, parallel);
    exec.set_record_op_cardinalities(true);
    Result<BindingTable> got = exec.Execute(*plan, nullptr);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(*got == want) << (parallel ? "parallel" : "serial");
  }
}

}  // namespace
}  // namespace parqo
