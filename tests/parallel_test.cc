// Concurrent optimizer runs over one pool, the shape of a server's
// sessions optimizing their cache misses. The load-bearing property: a
// query optimized concurrently with others returns a plan of cost
// identical to a sequential Optimize() of the same query, whatever the
// scheduling. These tests are also the ThreadSanitizer surface for
// concurrent optimizer runs (see the CI tsan job).

#include <memory>
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

TEST(ParallelOptimizeTest, BatchMatchesSequentialLoop) {
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
  for (const GeneratedQuery& q : generated) {
    prepared.push_back(std::make_unique<PreparedQuery>(
        q.patterns, hash,
        [&q](const JoinGraph& jg) { return q.MakeStats(jg); }));
  }

  OptimizeOptions options;
  std::vector<double> sequential_costs;
  for (const auto& q : prepared) {
    OptimizeResult r = Optimize(Algorithm::kTdAuto, q->inputs(), options);
    ASSERT_NE(r.plan, nullptr);
    sequential_costs.push_back(r.plan->total_cost);
  }

  ThreadPool pool(4);
  std::vector<OptimizeResult> results(prepared.size());
  pool.ParallelFor(
      static_cast<int>(prepared.size()),
      [&](int i) {
        results[i] =
            Optimize(Algorithm::kTdAuto, prepared[i]->inputs(), options);
      },
      /*max_workers=*/4);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_NE(results[i].plan, nullptr) << i;
    EXPECT_EQ(results[i].plan->total_cost, sequential_costs[i]) << i;
  }
}

// --- Concurrency smoke (the TSan target) --------------------------------

TEST(ConcurrencySmokeTest, BatchEntriesOptimizeTheSameQueriesAtOnce) {
  // Every query appears once per TD-family algorithm in one batch on 8
  // threads, each entry with a PreparedQuery of its own, as each server
  // session prepares its own: threads run the same queries at once and
  // share only immutable inputs (patterns, partitioner, the statistics
  // source) and the pool. Each round prepares afresh so every estimator
  // starts cold. Every plan must cost exactly what a sequential run on a
  // private PreparedQuery costs, from the algorithm that run used: the
  // one asked for, or TD-Auto's pick.
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
  std::vector<Algorithm> algorithms;
  std::vector<Algorithm> sequential_used;
  for (const GeneratedQuery& q : generated) {
    for (Algorithm algorithm : kTdFamily) {
      OptimizeResult r = Optimize(algorithm, prepare(q)->inputs(), options);
      ASSERT_NE(r.plan, nullptr);
      if (algorithm != Algorithm::kTdAuto) {
        ASSERT_EQ(r.algorithm_used, algorithm);
      }
      sequential_costs.push_back(r.plan->total_cost);
      algorithms.push_back(algorithm);
      sequential_used.push_back(r.algorithm_used);
    }
  }

  ThreadPool pool(8);
  for (int round = 0; round < 3; ++round) {  // pool reuse across batches
    std::vector<std::unique_ptr<PreparedQuery>> prepared;
    for (const GeneratedQuery& q : generated) {
      for (std::size_t a = 0; a < kTdFamily.size(); ++a) {
        prepared.push_back(prepare(q));
      }
    }
    std::vector<OptimizeResult> results(prepared.size());
    pool.ParallelFor(
        static_cast<int>(prepared.size()),
        [&](int i) {
          results[i] = Optimize(algorithms[i], prepared[i]->inputs(), options);
        },
        /*max_workers=*/8);
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_NE(results[i].plan, nullptr) << "round " << round << " " << i;
      EXPECT_EQ(results[i].algorithm_used, sequential_used[i])
          << "round " << round << " " << i;
      EXPECT_EQ(results[i].plan->total_cost, sequential_costs[i])
          << "round " << round << " " << i << " " << ToString(algorithms[i]);
    }
  }
}

}  // namespace
}  // namespace parqo
