// Execution engine tests: binding tables, node-store scans, and plan
// execution on a tiny hand-made cluster, checked against the reference
// evaluator.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
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

TEST(BindingTableTest, AppendFromAndAppendGather) {
  BindingTable src = MakeTable({0, 1}, {{1, 10}, {2, 20}, {3, 30}});
  BindingTable dst({0, 1});
  dst.AppendFrom(src);
  dst.AppendFrom(src);
  ASSERT_EQ(dst.NumRows(), 6u);
  EXPECT_EQ(dst.At(4, 0), 2u);
  EXPECT_EQ(dst.At(4, 1), 20u);

  BindingTable picked({0, 1});
  const std::uint32_t rows[] = {2, 0, 2};
  picked.AppendGather(src, rows, 3);
  EXPECT_EQ(picked, MakeTable({0, 1}, {{3, 30}, {1, 10}, {3, 30}}));
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

TEST(JoinKernelTest, MorselBoundaryRowCounts) {
  // Probe-side row counts around the morsel size: 0, 1, m-1, m, m+1.
  // Build side has 2 rows so any probe >= 2 keeps sides fixed; the
  // serial single-morsel result is the order oracle.
  constexpr std::size_t kMorsel = 4;
  const std::size_t kCounts[] = {0, 1, kMorsel - 1, kMorsel, kMorsel + 1};
  for (std::size_t probe_rows : kCounts) {
    SCOPED_TRACE(probe_rows);
    BindingTable left = MakeTable({0, 1}, {{1, 100}, {2, 200}});
    BindingTable right({0, 2});
    for (std::size_t r = 0; r < probe_rows; ++r) {
      // Keys cycle 1,2,3: some rows match each build row, some none.
      right.AppendRow(std::vector<TermId>{static_cast<TermId>(r % 3 + 1),
                                          static_cast<TermId>(r)});
    }
    BindingTable oracle = testing::ReferenceHashJoin(left, right);
    for (bool parallel : {false, true}) {
      BatchJoinOptions opts;
      opts.morsel_rows = kMorsel;
      opts.parallel = parallel;
      EXPECT_EQ(BatchHashJoin(left, right, opts), oracle)
          << (parallel ? "parallel" : "serial");
    }
  }
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
  table.Build({k1, k2, k1});
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

TEST(NodeStoreTest, MorselScanMatchesSingleMorsel) {
  // Scan output must be identical (including row order) for any morsel
  // size, serial or parallel.
  std::vector<Triple> triples;
  for (TermId s = 1; s <= 200; ++s) {
    triples.push_back({s, 5, s % 7 + 1});
  }
  NodeStore store(std::move(triples));
  ResolvedPattern pat;  // ?x <5> ?y
  pat.p = 5;
  pat.var_s = 0;
  pat.var_o = 1;
  pat.schema = {0, 1};
  BindingTable oracle = store.Scan(pat);
  ASSERT_EQ(oracle.NumRows(), 200u);
  for (std::size_t morsel : {1u, 7u, 64u, 1024u}) {
    for (bool parallel : {false, true}) {
      EXPECT_EQ(store.Scan(pat, morsel, parallel), oracle)
          << morsel << (parallel ? " parallel" : " serial");
    }
  }

  // Constant-object filter pushed into the scan, morseled.
  ResolvedPattern with_o = pat;
  with_o.o = 3;
  with_o.var_o = kInvalidVarId;
  with_o.schema = {0};
  EXPECT_EQ(store.Scan(with_o, 16, true), store.Scan(with_o));
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

  // Filtered == restricted unfiltered (multiset); every morsel size and
  // parallel run == the serial single-morsel filtered scan, row for row.
  // Returns the serial filtered table.
  BindingTable Check(const ResolvedPattern& pat, VarId var,
                     std::vector<TermId> keys) {
    const KeySet set(keys);
    const ScanFilter f{var, &set};
    BindingTable filtered = store_.Scan(pat, 0, false, f);
    EXPECT_EQ(Multiset(filtered), Restrict(store_.Scan(pat), var, keys));
    for (std::size_t morsel : {1u, 1024u, 4096u}) {
      for (bool parallel : {false, true}) {
        EXPECT_EQ(store_.Scan(pat, morsel, parallel, f), filtered)
            << morsel << (parallel ? " parallel" : " serial");
      }
    }
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

TEST_F(FilteredScanTest, DecodePathMergesOrProbes) {
  const ResolvedPattern pat = XPY(kP);
  std::vector<TermId> xs, ys;
  for (TermId v = 1; v <= 3000; v += 97) xs.push_back(v);
  for (TermId v = 100; v <= 130; ++v) ys.push_back(v);
  ys.push_back(9999);
  // Rows arrive sorted on ?x: merge; on ?y they do not: hash probe.
  // Either way the scan order (and so sorted_by) is the unfiltered one.
  EXPECT_EQ(Check(pat, 0, xs).sorted_by(), 0);
  BindingTable probed = Check(pat, 1, ys);
  EXPECT_EQ(probed.sorted_by(), 0);
  EXPECT_GT(probed.NumRows(), 1100u);
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
  // recording. Returns whether every filtered run scanned strictly fewer
  // rows than its unfiltered twin.
  bool Sweep(const std::vector<TriplePattern>& patterns, const World& w) {
    HashSoPartitioner hash;
    PreparedQuery pq(patterns, hash, StatsFromData(*w.graph));
    const JoinGraph& jg = pq.join_graph();
    const std::vector<std::vector<TermId>> truth =
        testing::MatchRows(JoinGraph(patterns), *w.graph);
    OptimizeOptions options;
    options.cost_params.num_nodes = kSipNodes;
    options.timeout_seconds = 60;
    std::map<std::vector<int>, std::uint64_t> sub_counts;
    std::set<std::string> seen_plans;
    bool all_pruned = true;
    for (Algorithm algorithm : kAllAlgorithms) {
      OptimizeResult r = Optimize(algorithm, pq.inputs(), options);
      if (r.plan == nullptr) {
        ADD_FAILURE() << ToString(algorithm) << ": no plan";
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
        all_pruned = all_pruned && mf.rows_scanned < mr.rows_scanned;
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
    return all_pruned;
  }
};

TEST_F(SipSweepTest, LubmQueriesMatchUnfilteredAndMatchBgp) {
  for (const BenchmarkQuery& bq : AllBenchmarkQueries()) {
    if (!bq.lubm) continue;
    SCOPED_TRACE(bq.name);
    Result<ParsedQuery> parsed = ParseSparql(bq.sparql);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const bool all_pruned = Sweep(parsed->patterns, Lubm());
    // The filters must fire where a tiny input meets big scans: every
    // plan of L3 and L10, serial and parallel, scans strictly less.
    if (bq.name == "L3" || bq.name == "L10") {
      EXPECT_TRUE(all_pruned);
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

}  // namespace
}  // namespace parqo
