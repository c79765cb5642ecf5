// Heap-allocation guard for the execution path (DESIGN.md section 13,
// "Scratch ownership"). The binary replaces the global operator new with
// a counting one and checks two fixed costs a light request must not
// pay:
//
//   - A node-store scan allocates the same number of times whether its
//     range spans one leaf page or twenty: it decodes straight into its
//     output columns, with no per-page buffer or staging.
//   - A scan that returns one row of a full page sizes its columns by
//     restart blocks, not by the page.
//   - A warm Execute of fixed LUBM and WatDiv plans on ten nodes, and a
//     warm Serve of a light WatDiv text, cost at most a constant per
//     operator more allocations than on one node, plus a few per node
//     for each per-node key filter. A (node, operator) work item reads
//     its inputs as row ranges of the operator's one table and writes
//     into its partition's scratch, which outlives the request.
//
// Sanitizers that intercept operator new themselves (ASan, TSan, MSan)
// would fight the replacement, so under them the counter is not compiled
// and every test skips.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
// parqo-lint: allow(naked-new) std::bad_alloc for the replacement below
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/cluster.h"
#include "exec/executor.h"
#include "exec/node_store.h"
#include "optimizer/optimizer.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "plan/plan.h"
#include "server/server.h"
#include "sparql/parser.h"
#include "stats/data_stats.h"
#include "storage/permutation_index.h"
#include "workload/benchmark_queries.h"
#include "workload/lubm.h"
#include "workload/watdiv.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PARQO_COUNT_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PARQO_COUNT_ALLOCATIONS 0
#endif
#endif
#ifndef PARQO_COUNT_ALLOCATIONS
#define PARQO_COUNT_ALLOCATIONS 1
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};
}  // namespace

#if PARQO_COUNT_ALLOCATIONS
// parqo-lint: allow(naked-new) the counting replacement under test
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace parqo {
namespace {

// Calls to operator new made by fn().
template <typename Fn>
std::uint64_t Allocations(Fn&& fn) {
  const std::uint64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

// Bytes requested from operator new by fn().
template <typename Fn>
std::uint64_t AllocatedBytes(Fn&& fn) {
  const std::uint64_t before = g_bytes.load();
  fn();
  return g_bytes.load() - before;
}

#define SKIP_WITHOUT_COUNTER()                                           \
  if (!PARQO_COUNT_ALLOCATIONS) {                                        \
    GTEST_SKIP() << "a sanitizer intercepts allocation; nothing counted"; \
  }

ResolvedPattern XPY(TermId p) {  // ?x <p> ?y
  ResolvedPattern r;
  r.p = p;
  r.var_s = 0;
  r.var_o = 1;
  r.schema = {0, 1};
  return r;
}

TEST(AllocTest, ScanAllocationsDoNotGrowWithPagesDecoded) {
  SKIP_WITHOUT_COUNTER();
  // Predicate 1 fills under one page of PSO, predicate 2 twenty.
  constexpr TermId kSmall = 1, kLarge = 2;
  std::vector<Triple> triples;
  for (TermId s = 1; s <= 300; ++s) triples.push_back({s, kSmall, s + 7});
  for (TermId s = 1; s <= 20 * kLeafEntries; ++s) {
    triples.push_back({s, kLarge, s % 97 + 1});
  }
  const PermutationIndex perms(triples);
  auto pages = [&](TermId p) {
    const PermutationIndex::RangeChoice rc =
        PermutationIndex::ChooseRange(kInvalidTermId, p, kInvalidTermId);
    const auto [first, end] = perms.perm(rc.perm).PageSpan(rc.lo, rc.hi);
    return end - first;
  };
  ASSERT_LE(pages(kSmall), 2u);
  ASSERT_GE(pages(kLarge), 20u);

  const NodeStore store(triples);
  std::size_t rows[2] = {0, 0};
  const std::uint64_t small_unfiltered = Allocations(
      [&] { rows[0] = store.Scan(XPY(kSmall)).NumRows(); });
  const std::uint64_t large_unfiltered = Allocations(
      [&] { rows[1] = store.Scan(XPY(kLarge)).NumRows(); });
  EXPECT_EQ(rows[0], 300u);
  EXPECT_EQ(rows[1], 20 * kLeafEntries);
  EXPECT_EQ(small_unfiltered, large_unfiltered);

  // A decode-path key filter (more keys than pages) that keeps a few
  // rows of either range.
  std::vector<TermId> ks;
  for (TermId s = 1; s <= 30; ++s) ks.push_back(s * 10);
  const KeySet keys(ks);
  const ScanFilter filter{0, &keys};
  const std::uint64_t small = Allocations([&] {
    EXPECT_EQ(store.Scan(XPY(kSmall), filter).NumRows(), 30u);
  });
  const std::uint64_t large = Allocations([&] {
    EXPECT_EQ(store.Scan(XPY(kLarge), filter).NumRows(), 30u);
  });
  EXPECT_EQ(small, large);
}

TEST(AllocTest, OneRowScansSizeColumnsByRestartBlocks) {
  SKIP_WITHOUT_COUNTER();
  // Predicate 1 fills exactly the first PSO page, one row per subject.
  std::vector<Triple> triples;
  for (TermId s = 1; s <= kLeafEntries; ++s) triples.push_back({s, 1, s + 7});
  for (TermId s = 1; s <= 2 * kLeafEntries; ++s) triples.push_back({s, 2, 1});
  const NodeStore store(triples);
  const std::uint64_t block = kBlockEntries * sizeof(TermId);
  // What a scan allocates besides its columns: the result of a pattern
  // that matches nothing, with the same schema.
  const ResolvedPattern xpy = XPY(1);
  ResolvedPattern unmatchable = xpy;
  unmatchable.unmatchable = true;
  const std::uint64_t empty = AllocatedBytes([&] {
    EXPECT_EQ(store.Scan(unmatchable).NumRows(), 0u);
  });
  for (TermId s = 1; s <= kLeafEntries; ++s) {
    SCOPED_TRACE(s);
    // A key filter that keeps one row: one block per column at most.
    const KeySet one(std::vector<TermId>{s});
    const std::uint64_t filtered = AllocatedBytes([&] {
      EXPECT_EQ(store.Scan(xpy, {0, &one}).NumRows(), 1u);
    });
    EXPECT_LE(filtered, empty + 2 * block);
    // A bound subject: one row, one column, sized to the restart blocks
    // its range spans. A row that opens a block can also sit past the
    // previous block's tail, so the range spans two of them.
    ResolvedPattern bound;
    bound.s = s;
    bound.p = 1;
    bound.var_o = 0;
    bound.schema = {0};
    const bool opens_block = (s - 1) % kBlockEntries == 0 && s > 1;
    const std::uint64_t unfiltered = AllocatedBytes([&] {
      EXPECT_EQ(store.Scan(bound).NumRows(), 1u);
    });
    EXPECT_LE(unfiltered, empty + (opens_block ? 2 : 1) * block);
  }
}

class WarmExecuteTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 10;
  // What each operator may cost ten nodes beyond one: slack for a
  // buffer that ten smaller partitions grow where one large one had
  // room. Work items themselves allocate nothing once warm, and neither
  // do key filters: a per-node filter is rebuilt in the key sets the
  // scratch kept from the last run.
  static constexpr std::uint64_t kPerOperator = 2;

  // A graph and its hash-SO clusters on one node and on kNodes nodes.
  struct World {
    explicit World(RdfGraph g)
        : graph(std::move(g)),
          one(graph, HashSoPartitioner().PartitionData(graph, 1)),
          many(graph, HashSoPartitioner().PartitionData(graph, kNodes)) {}
    RdfGraph graph;
    Cluster one;
    Cluster many;
  };

  // What ten nodes may allocate beyond one for `plan`: kPerOperator per
  // operator, with no term in operators x nodes or filters x nodes.
  static std::uint64_t Slack(const PlanNode& plan) {
    std::uint64_t ops = 0;
    std::vector<const PlanNode*> stack{&plan};
    while (!stack.empty()) {
      const PlanNode* node = stack.back();
      stack.pop_back();
      ++ops;
      for (const PlanNodePtr& c : node->children) stack.push_back(c.get());
    }
    return ops * kPerOperator;
  }

  // Allocations of a warm Execute of `plan`: the second of two runs in
  // one scratch.
  static std::uint64_t WarmAllocations(const Cluster& cluster,
                                       const JoinGraph& jg,
                                       const CostParams& params,
                                       const PlanNode& plan,
                                       std::uint64_t* rows) {
    Executor exec(cluster, jg, params);
    ExecScratch scratch;
    ExecMetrics metrics;
    EXPECT_TRUE(exec.Execute(plan, &metrics, &scratch).ok());
    const std::uint64_t allocations = Allocations([&] {
      EXPECT_TRUE(exec.Execute(plan, &metrics, &scratch).ok());
    });
    *rows = metrics.result_rows;
    return allocations;
  }

  // Plans `patterns` with TD-Auto and checks that a warm Execute on
  // kNodes nodes allocates at most Slack(plan) more than on one node:
  // a (node, operator) work item allocates nothing.
  static void Check(const World& w,
                    const std::vector<TriplePattern>& patterns) {
    HashSoPartitioner hash;
    PreparedQuery pq(patterns, hash, StatsFromData(w.graph));
    OptimizeOptions options;
    options.cost_params.num_nodes = kNodes;
    PlanNodePtr plan = Optimize(Algorithm::kTdAuto, pq.inputs(), options).plan;
    ASSERT_NE(plan, nullptr);
    std::uint64_t rows_one = 0, rows_many = 0;
    const std::uint64_t one = WarmAllocations(
        w.one, pq.join_graph(), options.cost_params, *plan, &rows_one);
    const std::uint64_t many = WarmAllocations(
        w.many, pq.join_graph(), options.cost_params, *plan, &rows_many);
    EXPECT_EQ(rows_one, rows_many);
    EXPECT_LE(many, one + Slack(*plan)) << one << " allocations on one node";
  }
};

TEST_F(WarmExecuteTest, LubmPlansStayUnderTheBound) {
  SKIP_WITHOUT_COUNTER();
  LubmConfig config;
  config.universities = 2;
  const World w(GenerateLubm(config));
  for (const BenchmarkQuery& q : AllBenchmarkQueries()) {
    if (!q.lubm) continue;
    SCOPED_TRACE(q.name);
    Result<ParsedQuery> parsed = ParseSparql(q.sparql);
    ASSERT_TRUE(parsed.ok());
    Check(w, parsed->patterns);
  }
}

TEST_F(WarmExecuteTest, WatdivPlansStayUnderTheBound) {
  SKIP_WITHOUT_COUNTER();
  WatdivDataConfig config;
  config.entities_per_class = 100;
  config.density = 1.0;
  const World w(GenerateWatdivData(config));
  Rng rng(2017);
  for (const WatdivTemplate& t : GenerateWatdivTemplates(40, rng)) {
    std::string name = "T";
    name += std::to_string(t.id);
    SCOPED_TRACE(name);
    Check(w, t.patterns);
  }
}

// The serving path end to end: a warm Serve of a light WatDiv text on
// ten nodes allocates at most Slack(plan) more than on one node. The
// server lends each request a scratch it keeps between requests, so the
// only difference left is the per-operator bookkeeping.
TEST_F(WarmExecuteTest, WarmServeOfALightTextCostsNoPerNodeAllocations) {
  SKIP_WITHOUT_COUNTER();
  WatdivDataConfig config;
  config.entities_per_class = 120;
  config.density = 1.1;
  config.seed = 7;
  const World w(GenerateWatdivData(config));
  Rng rng(2017);
  std::string text;
  for (const WatdivTemplate& t : GenerateWatdivTemplates(124, rng)) {
    if (t.id != 3) continue;
    ParsedQuery q;
    q.select_all = true;
    q.patterns = t.patterns;
    text = q.ToString();
  }
  ASSERT_FALSE(text.empty());
  Result<ParsedQuery> parsed = ParseSparql(text);
  ASSERT_TRUE(parsed.ok());
  HashSoPartitioner hash;
  ServerConfig sc;
  sc.options.cost_params.num_nodes = kNodes;
  sc.num_threads = 1;
  QueryServer on_one(w.graph, w.one, hash, sc);
  QueryServer on_many(w.graph, w.many, hash, sc);
  auto warm_serve = [&](QueryServer& server, std::uint64_t* rows,
                        PlanNodePtr* plan) {
    EXPECT_TRUE(server.Serve(parsed->patterns).status.ok());
    ServeResult r;
    const std::uint64_t allocations =
        Allocations([&] { r = server.Serve(parsed->patterns); });
    EXPECT_TRUE(r.status.ok());
    EXPECT_TRUE(r.cache_hit);
    *rows = r.rows.NumRows();
    *plan = r.plan;
    return allocations;
  };
  std::uint64_t rows_one = 0, rows_many = 0;
  PlanNodePtr plan_one, plan_many;
  const std::uint64_t one = warm_serve(on_one, &rows_one, &plan_one);
  const std::uint64_t many = warm_serve(on_many, &rows_many, &plan_many);
  EXPECT_EQ(rows_one, rows_many);
  ASSERT_NE(plan_many, nullptr);
  EXPECT_LE(rows_many, 2000u);  // light
  EXPECT_LE(many, one + Slack(*plan_many))
      << one << " allocations on one node";
}

}  // namespace
}  // namespace parqo
