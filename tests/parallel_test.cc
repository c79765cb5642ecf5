// The inter-query batch optimizer and the thread-pool plumbing. The
// load-bearing property: an OptimizeBatch entry returns a plan of cost
// identical to a sequential Optimize() of the same query, whatever the
// scheduling. These tests are also the ThreadSanitizer surface for
// concurrent optimizer runs and for the pool itself (see the CI tsan
// job).

#include "optimizer/parallel_optimizer.h"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "optimizer/optimizer.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "plan/plan.h"
#include "workload/random_query.h"

namespace parqo {
namespace {

const std::vector<Algorithm> kTdFamily{Algorithm::kTdCmd, Algorithm::kTdCmdp,
                                       Algorithm::kHgrTdCmd,
                                       Algorithm::kTdAuto};

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(257, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 257; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Outer tasks saturate the pool; inner ParallelFor must still complete
  // because callers participate in their own loops.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](int) {
    pool.ParallelFor(16, [&](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, SubmitRunsTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.ParallelFor(1, [&](int) {});  // warm-up, no-op
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&] { ran.fetch_add(1); });
  }
  // Destructor drains the queue; check after the pool is gone.
  {
    ThreadPool scoped(2);
    for (int i = 0; i < 32; ++i) {
      scoped.Submit([&] { ran.fetch_add(1); });
    }
  }
  EXPECT_GE(ran.load(), 32);  // scoped's 32 are guaranteed drained
}

TEST(ThreadPoolTest, MaxWorkersCapIsRespected) {
  // Not directly observable from outside, but must at least complete and
  // cover everything with a cap smaller than the pool.
  ThreadPool pool(8);
  std::atomic<int> total{0};
  pool.ParallelFor(100, [&](int) { total.fetch_add(1); }, /*max_workers=*/2);
  EXPECT_EQ(total.load(), 100);
}

// --- Inter-query batch --------------------------------------------------

TEST(ParallelOptimizerTest, BatchMatchesSequentialLoop) {
  Rng rng(99);
  HashSoPartitioner hash;
  std::vector<GeneratedQuery> generated;
  const QueryShape kShapes[] = {QueryShape::kStar, QueryShape::kChain,
                                QueryShape::kCycle, QueryShape::kTree};
  for (int i = 0; i < 24; ++i) {
    generated.push_back(
        GenerateRandomQuery(kShapes[i % 4], 5 + i % 5, rng));
  }
  std::vector<std::unique_ptr<PreparedQuery>> prepared;
  std::vector<const PreparedQuery*> queries;
  for (const GeneratedQuery& q : generated) {
    prepared.push_back(std::make_unique<PreparedQuery>(
        q.patterns, hash,
        [&q](const JoinGraph& jg) { return q.MakeStats(jg); }));
    queries.push_back(prepared.back().get());
  }

  OptimizeOptions options;
  std::vector<double> sequential_costs;
  for (const PreparedQuery* q : queries) {
    OptimizeResult r = Optimize(Algorithm::kTdAuto, q->inputs(), options);
    ASSERT_NE(r.plan, nullptr);
    sequential_costs.push_back(r.plan->total_cost);
  }

  ParallelOptimizer popt(4);
  EXPECT_EQ(popt.num_threads(), 4);
  std::vector<OptimizeResult> results =
      popt.OptimizeBatch(Algorithm::kTdAuto, queries, options);
  ASSERT_EQ(results.size(), queries.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_NE(results[i].plan, nullptr) << i;
    EXPECT_EQ(results[i].plan->total_cost, sequential_costs[i]) << i;
  }
}

TEST(ParallelOptimizerTest, MixedAlgorithmBatch) {
  Rng rng(7);
  HashSoPartitioner hash;
  GeneratedQuery q1 = GenerateRandomQuery(QueryShape::kChain, 8, rng);
  GeneratedQuery q2 = GenerateRandomQuery(QueryShape::kStar, 7, rng);
  PreparedQuery p1(q1.patterns, hash,
                   [&](const JoinGraph& jg) { return q1.MakeStats(jg); });
  PreparedQuery p2(q2.patterns, hash,
                   [&](const JoinGraph& jg) { return q2.MakeStats(jg); });

  ParallelOptimizer popt(2);
  std::vector<BatchQuery> batch{{Algorithm::kTdCmd, &p1},
                                {Algorithm::kTdCmdp, &p2}};
  std::vector<OptimizeResult> results =
      popt.OptimizeBatch(batch, OptimizeOptions{});
  ASSERT_EQ(results.size(), 2u);
  ASSERT_NE(results[0].plan, nullptr);
  ASSERT_NE(results[1].plan, nullptr);
  EXPECT_EQ(results[0].algorithm_used, Algorithm::kTdCmd);
  EXPECT_EQ(results[1].algorithm_used, Algorithm::kTdCmdp);
}

// --- Concurrency smoke (the TSan target) --------------------------------

TEST(ConcurrencySmokeTest, BatchEntriesOptimizeTheSameQueriesAtOnce) {
  // Every query appears once per TD-family algorithm in one batch on 8
  // workers, each entry with a PreparedQuery of its own: workers run
  // the same queries at once and share only immutable inputs (patterns,
  // partitioner, the statistics source) and the pool. Each round
  // prepares afresh so every estimator starts cold. Every plan must cost
  // exactly what a sequential run on a private PreparedQuery costs.
  Rng rng(2017);
  HashSoPartitioner hash;
  std::vector<GeneratedQuery> generated;
  const QueryShape kShapes[] = {QueryShape::kTree, QueryShape::kDense,
                                QueryShape::kCycle};
  for (int i = 0; i < 6; ++i) {
    generated.push_back(
        GenerateRandomQuery(kShapes[i % 3], 7 + i % 4, rng));
  }
  auto prepare = [&](const GeneratedQuery& q) {
    return std::make_unique<PreparedQuery>(
        q.patterns, hash,
        [&q](const JoinGraph& jg) { return q.MakeStats(jg); });
  };

  OptimizeOptions options;
  std::vector<double> sequential_costs;
  for (const GeneratedQuery& q : generated) {
    for (Algorithm algorithm : kTdFamily) {
      OptimizeResult r = Optimize(algorithm, prepare(q)->inputs(), options);
      ASSERT_NE(r.plan, nullptr);
      sequential_costs.push_back(r.plan->total_cost);
    }
  }

  ParallelOptimizer popt(8);
  for (int round = 0; round < 3; ++round) {  // pool reuse across batches
    std::vector<std::unique_ptr<PreparedQuery>> prepared;
    std::vector<BatchQuery> batch;
    for (const GeneratedQuery& q : generated) {
      for (Algorithm algorithm : kTdFamily) {
        prepared.push_back(prepare(q));
        batch.push_back({algorithm, prepared.back().get()});
      }
    }
    std::vector<OptimizeResult> results = popt.OptimizeBatch(batch, options);
    ASSERT_EQ(results.size(), sequential_costs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_NE(results[i].plan, nullptr) << "round " << round << " " << i;
      EXPECT_EQ(results[i].plan->total_cost, sequential_costs[i])
          << "round " << round << " " << i << " "
          << ToString(batch[i].algorithm);
    }
  }
}

TEST(ParallelOptimizerDeathTest, RejectsEntriesSharingAPreparedQuery) {
  // The estimator memo is single-threaded, so one PreparedQuery named by
  // two entries must abort before any worker touches it.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(7);
  HashSoPartitioner hash;
  GeneratedQuery q = GenerateRandomQuery(QueryShape::kChain, 5, rng);
  PreparedQuery shared(q.patterns, hash,
                       [&q](const JoinGraph& jg) { return q.MakeStats(jg); });
  PreparedQuery other(q.patterns, hash,
                      [&q](const JoinGraph& jg) { return q.MakeStats(jg); });
  ParallelOptimizer popt(2);
  EXPECT_DEATH(popt.OptimizeBatch({{Algorithm::kTdCmd, &shared},
                                   {Algorithm::kTdCmd, &other},
                                   {Algorithm::kTdAuto, &shared}},
                                  OptimizeOptions{}),
               "no_shared_prepared_query");
  // Distinct PreparedQueries of the same patterns are fine.
  std::vector<OptimizeResult> ok = popt.OptimizeBatch(
      {{Algorithm::kTdCmd, &shared}, {Algorithm::kTdAuto, &other}},
      OptimizeOptions{});
  ASSERT_EQ(ok.size(), 2u);
  EXPECT_NE(ok[0].plan, nullptr);
  EXPECT_NE(ok[1].plan, nullptr);
}

}  // namespace
}  // namespace parqo
