// Concurrency stress for the annotated-lock subsystems, written for the
// CI ThreadSanitizer job: a serving storm (QueryServer::ServeConcurrent)
// races direct PlanCache eviction churn, so the cache shard and pool
// queue locks of common/thread_annotations.h are hammered from two
// directions at once. The second half exercises the runtime
// LockRank checker itself: hierarchy-ordered nesting must pass, and
// misordered or same-rank nesting must abort (death tests), proving the
// dynamic layer of the lock discipline enforces what the linter and the
// clang analysis check statically.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "exec/cluster.h"
#include "partition/hash_so.h"
#include "plan/plan.h"
#include "server/plan_cache.h"
#include "server/server.h"
#include "tests/test_util.h"
#include "workload/watdiv.h"

namespace parqo {
namespace {

constexpr int kNodes = 4;

const RdfGraph& StressGraph() {
  // parqo-lint: allow(naked-new) leaked cached dataset
  static const RdfGraph& g = *new RdfGraph([] {
    WatdivDataConfig cfg;
    cfg.entities_per_class = 120;
    cfg.density = 1.1;
    return GenerateWatdivData(cfg);
  }());
  return g;
}

const Cluster& StressCluster() {
  // parqo-lint: allow(naked-new) leaked cached cluster
  static const Cluster& c = *new Cluster(
      StressGraph(), HashSoPartitioner().PartitionData(StressGraph(), kNodes));
  return c;
}

const HashSoPartitioner& Part() {
  static HashSoPartitioner part;
  return part;
}

PlanNodePtr MakeScanPlan(int tp, double sentinel) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNode::Kind::kScan;
  node->tp = tp;
  node->total_cost = sentinel;
  return node;
}

// --------------------------------------------------------------------------
// The storm: serving sessions (which miss, optimize, insert, and hit the
// cache through the pool) and a dedicated eviction churner driving the
// same tiny cache shards past capacity. Run under TSan this covers every Mutex the
// refactor introduced; without TSan it is still a crash/consistency test
// (every copied-out plan must stay whole, rows per signature must agree).

TEST(ConcurrencyStressTest, ServingRacesEvictionChurn) {
  ServerConfig config;
  config.num_threads = 4;
  config.cache_shards = 2;
  config.cache_shard_capacity = 2;  // more templates than capacity: evict
  QueryServer server(StressGraph(), StressCluster(), Part(), config);

  Rng rng(2017);
  std::vector<WatdivTemplate> templates = GenerateWatdivTemplates(40, rng);
  std::vector<std::vector<TriplePattern>> stream;
  for (int i = 0; i < 64; ++i) {
    stream.push_back(templates[i % 12].patterns);
  }

  std::atomic<bool> stop{false};

  // Eviction churner: inserts/looks up synthetic entries in the same
  // cache the sessions use, so shard locks see foreign traffic and the
  // LRU is constantly evicting under the sessions' feet.
  std::atomic<std::uint64_t> churn_validated{0};
  std::thread churner([&] {
    PlanCache& cache = server.cache();
    const std::string hot_key = PlanCache::MakeKey("churn-hot", "hash-so");
    CachedPlan hot;
    hot.plan = MakeScanPlan(3, 42.0);
    hot.plan_cost = 42.0;
    int i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      CachedPlan filler;
      filler.plan = MakeScanPlan(i % 16, 1.0);
      cache.Insert(PlanCache::MakeKey("churn" + std::to_string(i % 512),
                                      "hash-so"),
                   std::move(filler));
      cache.Insert(hot_key, hot);
      std::optional<CachedPlan> got = cache.Lookup(hot_key);
      if (got) {
        ASSERT_NE(got->plan, nullptr);
        ASSERT_EQ(got->plan->total_cost, 42.0);
        churn_validated.fetch_add(1, std::memory_order_relaxed);
      }
      (void)cache.size();  // sequential shard locking vs. shard traffic
      ++i;
    }
  });

  std::vector<ServeResult> results = server.ServeConcurrent(stream, 4);
  stop.store(true, std::memory_order_release);
  churner.join();

  ASSERT_EQ(results.size(), stream.size());
  std::map<std::string, double> cost_by_signature;
  for (const ServeResult& r : results) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_NE(r.plan, nullptr);
    // Plans for one signature must agree no matter how the entry raced
    // eviction (a copied-out CachedPlan is immune to churn by contract).
    auto [it, inserted] =
        cost_by_signature.emplace(r.signature, r.plan->total_cost);
    if (!inserted) {
      EXPECT_EQ(r.plan->total_cost, it->second)
          << "signature " << r.signature;
    }
  }
  EXPECT_GT(server.cache().evictions(), 0u);
  EXPECT_GT(churn_validated.load(), 0u);
}

// --------------------------------------------------------------------------
// Runtime LockRank checker: the dynamic third of the lock discipline.

TEST(LockRankCheckerTest, HierarchyOrderedNestingPasses) {
  bool prev = LockRankCheckingEnabled();
  SetLockRankCheckingEnabled(true);
  Mutex shard(LockRank::kCacheShard);
  Mutex trace(LockRank::kTrace);
  {
    MutexLock outer(shard);
    MutexLock inner(trace);  // 20 -> 70 climbs the hierarchy
  }
  {
    // Sequential reacquisition at a lower rank is fine once the higher
    // lock is released — only simultaneous holding is ordered.
    MutexLock again(shard);
  }
  SetLockRankCheckingEnabled(prev);
}

TEST(LockRankCheckerTest, ToggleWhileHeldNeitherAbortsNorLeaksRank) {
  bool prev = LockRankCheckingEnabled();
  Mutex mu(LockRank::kPool);
  SetLockRankCheckingEnabled(false);
  {
    MutexLock held(mu);  // acquired unchecked...
    SetLockRankCheckingEnabled(true);
  }  // ...released checked: the tolerant pop must not abort
  {
    MutexLock held(mu);  // acquired checked...
    SetLockRankCheckingEnabled(false);
  }  // ...released unchecked: must not leave a stale rank behind
  SetLockRankCheckingEnabled(true);
  {
    MutexLock clean(mu);  // a leaked kPool entry would abort here
  }
  SetLockRankCheckingEnabled(prev);
}

TEST(LockRankCheckerDeathTest, MisorderedNestingAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetLockRankCheckingEnabled(true);
        Mutex trace(LockRank::kTrace);
        Mutex shard(LockRank::kCacheShard);
        MutexLock outer(trace);
        MutexLock inner(shard);  // 70 -> 20 descends: abort
      },
      "lock rank order");
}

TEST(LockRankCheckerDeathTest, SameRankNestingAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetLockRankCheckingEnabled(true);
        Mutex a(LockRank::kPool);
        Mutex b(LockRank::kPool);
        MutexLock outer(a);
        MutexLock inner(b);  // same rank: no defined order, abort
      },
      "lock rank order");
}

}  // namespace
}  // namespace parqo
