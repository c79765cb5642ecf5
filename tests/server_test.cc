// End-to-end tests for the serving layer (server/server.h): cache-hit
// plans must be bit-identical to a cold optimize for every algorithm,
// degraded entries must not poison the cache, eviction must never hand a
// session a dangling plan, admission control must reject with the typed
// kOverloaded, and the PR 4 fault layer must keep its invariant while
// serving (bit-identical rows or a clean typed error, per session).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "exec/cluster.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "plan/plan.h"
#include "query/match.h"
#include "server/admission.h"
#include "server/plan_cache.h"
#include "server/server.h"
#include "server/signature.h"
#include "sparql/parser.h"
#include "tests/test_util.h"
#include "workload/benchmark_queries.h"
#include "workload/lubm.h"
#include "workload/random_query.h"
#include "workload/watdiv.h"

namespace parqo {
namespace {

std::uint64_t ChaosSeed() {
  const char* env = std::getenv("PARQO_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 2017;
  return std::strtoull(env, nullptr, 10);
}

constexpr int kNodes = 4;

const RdfGraph& WatdivGraph() {
  // parqo-lint: allow(naked-new) leaked cached dataset
  static const RdfGraph& g = *new RdfGraph([] {
    WatdivDataConfig cfg;
    cfg.entities_per_class = 200;
    cfg.density = 1.2;
    return GenerateWatdivData(cfg);
  }());
  return g;
}

const Cluster& WatdivCluster() {
  // parqo-lint: allow(naked-new) leaked cached cluster
  static const Cluster& c = *new Cluster(
      WatdivGraph(), HashSoPartitioner().PartitionData(WatdivGraph(), kNodes));
  return c;
}

const HashSoPartitioner& Part() {
  static HashSoPartitioner part;
  return part;
}

std::vector<WatdivTemplate> Templates() {
  Rng rng(2017);
  return GenerateWatdivTemplates(124, rng);
}

/// First template whose size falls in [lo, hi].
std::vector<TriplePattern> TemplateSized(int lo, int hi) {
  for (const WatdivTemplate& t : Templates()) {
    int n = static_cast<int>(t.patterns.size());
    if (n >= lo && n <= hi) return t.patterns;
  }
  ADD_FAILURE() << "no template sized [" << lo << "," << hi << "]";
  return {};
}

/// Renames variables and permutes patterns without changing structure.
std::vector<TriplePattern> Scramble(const std::vector<TriplePattern>& patterns,
                                    Rng& rng) {
  std::map<std::string, std::string> names;
  for (const TriplePattern& tp : patterns) {
    for (const std::string& v : tp.Variables()) {
      if (!names.count(v)) {
        std::string name = "r";
        name += std::to_string(rng.Next() % 100000);
        name += "_";
        name += std::to_string(names.size());
        names[v] = std::move(name);
      }
    }
  }
  std::vector<TriplePattern> out = patterns;
  for (TriplePattern& tp : out) {
    for (PatternTerm* t : {&tp.s, &tp.p, &tp.o}) {
      if (t->IsVar()) t->var = names.at(t->var);
    }
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Next() % i]);
  }
  return out;
}

/// Result rows as a set over canonical VarIds 0..num_vars-1 — queries
/// with equal signatures execute in the same canonical space, so their
/// normalized rows are directly comparable.
std::set<std::vector<TermId>> Rows(const ServeResult& r) {
  std::set<std::vector<TermId>> rows;
  int num_vars = static_cast<int>(r.var_names.size());
  for (std::size_t i = 0; i < r.rows.NumRows(); ++i) {
    std::vector<TermId> row;
    for (VarId v = 0; v < num_vars; ++v) {
      int c = r.rows.ColumnOf(v);
      row.push_back(c < 0 ? kInvalidTermId : r.rows.At(i, c));
    }
    rows.insert(row);
  }
  return rows;
}

/// %.17g cost rendering: equal strings means bit-equal doubles.
std::string CostBits(double cost) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", cost);
  return buf;
}

// --------------------------------------------------------------------------
// Cache-hit fast path: bit-identical to cold optimize, for all algorithms.

TEST(ServerTest, CacheHitPlanBitIdenticalToColdOptimizeAllAlgorithms) {
  std::vector<TriplePattern> query = TemplateSized(4, 6);
  ASSERT_FALSE(query.empty());
  Rng rng(99);
  for (Algorithm algo :
       {Algorithm::kTdCmd, Algorithm::kTdCmdp, Algorithm::kHgrTdCmd,
        Algorithm::kTdAuto, Algorithm::kMsc, Algorithm::kDpBushy,
        Algorithm::kBinaryDp}) {
    SCOPED_TRACE(ToString(algo));
    ServerConfig config;
    config.algorithm = algo;
    config.num_threads = 2;
    QueryServer server(WatdivGraph(), WatdivCluster(), Part(), config);

    ServeResult cold = server.Serve(query);
    ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
    EXPECT_FALSE(cold.cache_hit);
    ASSERT_NE(cold.plan, nullptr);

    // Reference: optimize the canonical form directly, outside the
    // server, with the same options. The served plan must match to the
    // last bit of its cost and structure.
    CanonicalBgp canon = CanonicalizeBgp(query);
    PreparedQuery prepared(canon.patterns, Part(), StatsFromData(WatdivGraph()));
    OptimizeResult reference = Optimize(algo, prepared.inputs(), config.options);
    ASSERT_NE(reference.plan, nullptr);
    EXPECT_EQ(PlanToCompactString(*cold.plan),
              PlanToCompactString(*reference.plan));
    EXPECT_EQ(CostBits(cold.plan->total_cost),
              CostBits(reference.plan->total_cost));

    // A scrambled rewrite of the query must hit and serve the very same
    // plan and the same rows.
    ServeResult hit = server.Serve(Scramble(query, rng));
    ASSERT_TRUE(hit.status.ok()) << hit.status.ToString();
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.signature, cold.signature);
    ASSERT_NE(hit.plan, nullptr);
    EXPECT_EQ(PlanToCompactString(*hit.plan), PlanToCompactString(*cold.plan));
    EXPECT_EQ(CostBits(hit.plan_cost), CostBits(cold.plan_cost));
    EXPECT_EQ(Rows(hit), Rows(cold));
  }
}

// The minimized regression for the original signature bug, end to end:
// permuted + renamed query, identical signature, cached-plan hit.
TEST(ServerTest, PermutedRenamedQueryHitsCache) {
  using testing::Tp;
  std::vector<TriplePattern> original = {
      Tp("?a", "http://db.uwaterloo.ca/watdiv/follows", "?b"),
      Tp("?b", "http://db.uwaterloo.ca/watdiv/likes", "?c"),
      Tp("?c", "http://db.uwaterloo.ca/watdiv/hasReview", "?d"),
  };
  std::vector<TriplePattern> rewritten = {
      Tp("?r2", "http://db.uwaterloo.ca/watdiv/hasReview", "?r3"),
      Tp("?r0", "http://db.uwaterloo.ca/watdiv/follows", "?r1"),
      Tp("?r1", "http://db.uwaterloo.ca/watdiv/likes", "?r2"),
  };
  QueryServer server(WatdivGraph(), WatdivCluster(), Part(), ServerConfig{});
  ServeResult first = server.Serve(original);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);
  ServeResult second = server.Serve(rewritten);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.signature, first.signature);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(Rows(second), Rows(first));
  EXPECT_EQ(server.cache().hits(), 1u);
  EXPECT_EQ(server.cache().size(), 1u);
}

// --------------------------------------------------------------------------
// Degraded plans: cached under the distinct flag, upgraded on the next
// unhurried request, never poisoning it.

TEST(ServerTest, DegradedEntryIsFlaggedAndUpgradedNotPoisoning) {
  // A dense query large enough that the enumerator cannot finish inside
  // one deadline-poll interval (the WatDiv stars are too small: they
  // complete before the expired deadline is ever observed). Against the
  // WatDiv data its scans are empty, which is irrelevant here — this
  // test is about plan provenance, not rows.
  Rng query_rng(7);
  std::vector<TriplePattern> query =
      GenerateRandomQuery(QueryShape::kDense, 12, query_rng).patterns;
  QueryServer server(WatdivGraph(), WatdivCluster(), Part(), ServerConfig{});

  // An effectively-zero budget forces the deadline degradation path
  // (best memoized plan or MSC fallback) — still a valid, executable
  // plan, cached with degraded set.
  ServeResult rushed = server.Serve(query, /*deadline_seconds=*/1e-9);
  ASSERT_TRUE(rushed.status.ok()) << rushed.status.ToString();
  ASSERT_TRUE(rushed.degraded);
  EXPECT_FALSE(rushed.cache_hit);

  // The next request has no deadline: it must not be served the degraded
  // plan as-is but re-optimize and upgrade the entry.
  ServeResult unhurried = server.Serve(query, /*deadline_seconds=*/0);
  ASSERT_TRUE(unhurried.status.ok());
  EXPECT_TRUE(unhurried.cache_hit);
  EXPECT_TRUE(unhurried.reoptimized);
  EXPECT_FALSE(unhurried.degraded);

  // From now on it is an ordinary clean hit.
  ServeResult third = server.Serve(query);
  ASSERT_TRUE(third.status.ok());
  EXPECT_TRUE(third.cache_hit);
  EXPECT_FALSE(third.reoptimized);
  EXPECT_FALSE(third.degraded);
  EXPECT_EQ(PlanToCompactString(*third.plan),
            PlanToCompactString(*unhurried.plan));

  // All three executed valid plans over the same data.
  EXPECT_EQ(Rows(rushed), Rows(unhurried));
  EXPECT_EQ(Rows(unhurried), Rows(third));
}

// --------------------------------------------------------------------------
// Eviction under concurrency: a session's plan must survive its entry.

TEST(ServerTest, HotShardEvictionNeverDanglesPlans) {
  // One shard, tiny capacity: every insert evicts. Readers hammer a hot
  // key and validate the plan they copied out while a writer storm
  // churns the shard. Under ASan this is the dangling-plan negative
  // test; without it, the sentinel checks still catch corruption.
  PlanCache cache(/*num_shards=*/1, /*shard_capacity=*/2);
  auto make_plan = [](int tp, double sentinel) {
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanNode::Kind::kScan;
    node->tp = tp;
    node->total_cost = sentinel;
    return node;
  };
  const std::string hot_key = PlanCache::MakeKey("hot", "hash-so");
  CachedPlan hot;
  hot.plan = make_plan(7, 1234.5);
  hot.plan_cost = 1234.5;
  cache.Insert(hot_key, hot);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> validated{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        std::optional<CachedPlan> got = cache.Lookup(hot_key);
        if (!got) continue;
        // The entry may be evicted right now; our copy must stay whole.
        ASSERT_NE(got->plan, nullptr);
        ASSERT_EQ(got->plan->tp, 7);
        ASSERT_EQ(got->plan->total_cost, 1234.5);
        ASSERT_EQ(got->plan_cost, 1234.5);
        validated.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) {
      CachedPlan filler;
      filler.plan = make_plan(i % 64, 1.0);
      std::string key = "f";
      key += std::to_string(i);
      cache.Insert(PlanCache::MakeKey(key, "hash-so"), std::move(filler));
      if (i % 16 == 0) cache.Insert(hot_key, hot);
    }
    stop.store(true, std::memory_order_release);
  });
  writer.join();
  for (std::thread& r : readers) r.join();
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_GT(validated.load(), 0u);
  EXPECT_LE(cache.size(), 2u);
  // The original shared plan is still intact regardless of cache state.
  EXPECT_EQ(hot.plan->total_cost, 1234.5);
}

// --------------------------------------------------------------------------
// Admission control.

TEST(ServerTest, AdmissionControllerBoundsInFlight) {
  AdmissionController ctrl(2);
  AdmissionTicket a(ctrl), b(ctrl);
  EXPECT_TRUE(a);
  EXPECT_TRUE(b);
  EXPECT_EQ(ctrl.in_flight(), 2);
  {
    AdmissionTicket c(ctrl);
    EXPECT_FALSE(c);  // at capacity: typed rejection, no slot consumed
    EXPECT_EQ(ctrl.in_flight(), 2);
  }
  EXPECT_EQ(ctrl.rejected(), 1u);
  {
    AdmissionTicket d(ctrl);
    EXPECT_FALSE(d);
  }
  // Releasing one slot readmits.
  { AdmissionTicket scoped(ctrl); }
  EXPECT_EQ(ctrl.in_flight(), 2);
}

TEST(ServerTest, OverloadedServerRejectsWithTypedStatus) {
  ServerConfig config;
  config.max_in_flight = 2;
  QueryServer server(WatdivGraph(), WatdivCluster(), Part(), config);
  std::vector<TriplePattern> query = TemplateSized(2, 4);

  {
    AdmissionTicket a(server.admission()), b(server.admission());
    ASSERT_TRUE(a && b);  // both slots held: the server is saturated
    ServeResult rejected = server.Serve(query);
    EXPECT_EQ(rejected.status.code(), StatusCode::kOverloaded);
    EXPECT_EQ(rejected.plan, nullptr);  // nothing was attempted
    EXPECT_TRUE(rejected.signature.empty());
  }
  // Capacity released: the same request now succeeds.
  ServeResult ok = server.Serve(query);
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_GE(server.admission().rejected(), 1u);
}

TEST(ServerTest, InvalidQueriesGetTypedErrors) {
  QueryServer server(WatdivGraph(), WatdivCluster(), Part(), ServerConfig{});
  EXPECT_EQ(server.Serve({}).status.code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// Concurrent sessions.

TEST(ServerTest, ConcurrentSessionsAgreeWithEachOtherPerSignature) {
  ServerConfig config;
  config.num_threads = 4;
  QueryServer server(WatdivGraph(), WatdivCluster(), Part(), config);

  // A skewed stream over a handful of templates, every event scrambled
  // differently: concurrent sessions race misses and hits on the same
  // keys. Every session with the same signature must produce identical
  // rows whether its plan came cold or cached.
  std::vector<WatdivTemplate> templates = Templates();
  std::vector<std::vector<TriplePattern>> stream;
  Rng rng(5);
  for (int i = 0; i < 48; ++i) {
    const WatdivTemplate& t = templates[i % 6];
    stream.push_back(Scramble(t.patterns, rng));
  }
  std::vector<ServeResult> results = server.ServeConcurrent(stream, 4);
  ASSERT_EQ(results.size(), stream.size());

  std::map<std::string, std::set<std::vector<TermId>>> rows_by_signature;
  int hits = 0;
  for (const ServeResult& r : results) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    hits += r.cache_hit ? 1 : 0;
    auto [it, inserted] = rows_by_signature.emplace(r.signature, Rows(r));
    if (!inserted) {
      EXPECT_EQ(Rows(r), it->second) << "signature " << r.signature;
    }
  }
  // 6 distinct templates in 48 events: at most 6 misses are necessary.
  // Races may duplicate a cold optimize (two sessions miss the same key
  // simultaneously), but the steady state must be hits.
  EXPECT_GE(hits, 36);
  EXPECT_LE(server.cache().size(), 6u);
}

// --------------------------------------------------------------------------
// Chaos while serving: the PR 4 invariant, per session.

TEST(ServerTest, ChaosSeedsKeepBitIdenticalOrTypedErrorPerSession) {
  ServerConfig config;
  config.num_threads = 2;
  QueryServer server(WatdivGraph(), WatdivCluster(), Part(), config);

  std::vector<WatdivTemplate> templates = Templates();
  std::vector<std::vector<TriplePattern>> stream;
  Rng rng(11);
  for (int i = 0; i < 12; ++i) {
    stream.push_back(Scramble(templates[i % 4].patterns, rng));
  }

  // Fault-free baseline rows per signature (also warms the plan cache,
  // so the chaos pass exercises the cache-hit execution path).
  std::map<std::string, std::set<std::vector<TermId>>> baseline;
  for (const auto& q : stream) {
    ServeResult r = server.Serve(q);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    baseline.emplace(r.signature, Rows(r));
  }

  FaultPlanConfig fault_config;
  fault_config.crash_probability = 0.4;
  fault_config.drop_probability = 0.15;
  FaultPlan fault(ChaosSeed(), kNodes, fault_config);
  std::vector<ServeResult> results;
  {
    FaultScope scope(&fault);
    results = server.ServeConcurrent(stream, 2);
  }
  int recovered_or_clean = 0;
  for (const ServeResult& r : results) {
    if (r.status.ok()) {
      EXPECT_EQ(Rows(r), baseline.at(r.signature));
    } else {
      // Recovery exhausted: typed, with zeroed/flagged metrics — never
      // a silently wrong result.
      EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
      EXPECT_TRUE(r.exec_metrics.failed);
      EXPECT_EQ(r.rows.NumRows(), 0u);
    }
    ++recovered_or_clean;
  }
  EXPECT_EQ(recovered_or_clean, static_cast<int>(results.size()));
}

// Ground truth at the scale the benchmark serves: LUBM-200 L1-L10 on a
// 10-node hash-partitioned cluster through QueryServer::Serve. Each
// result must hold exactly the distinct MatchBgp bindings, each once.
TEST(ServerTest, Lubm200ServedRowsMatchMatchBgp) {
  constexpr int kLubmNodes = 10;
  LubmConfig lubm;
  lubm.universities = 200;
  const RdfGraph graph = GenerateLubm(lubm);
  HashSoPartitioner hash;
  const Cluster cluster(graph, hash.PartitionData(graph, kLubmNodes));
  ServerConfig config;
  config.options.cost_params.num_nodes = kLubmNodes;
  QueryServer server(graph, cluster, hash, config);
  for (const BenchmarkQuery& bq : AllBenchmarkQueries()) {
    if (!bq.lubm) continue;
    SCOPED_TRACE(bq.name);
    Result<ParsedQuery> parsed = ParseSparql(bq.sparql);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ServeResult served = server.Serve(parsed->patterns);
    ASSERT_TRUE(served.status.ok()) << served.status.ToString();

    // MatchBgp rows, reordered into the served canonical variable order.
    const JoinGraph jg(parsed->patterns);
    std::vector<std::vector<TermId>> truth;
    for (const BgpMatch& m : MatchBgp(jg, graph, 0)) {
      std::vector<TermId> row;
      for (const std::string& name : served.var_names) {
        row.push_back(m.bindings[jg.FindVar(name)]);
      }
      truth.push_back(std::move(row));
    }
    std::sort(truth.begin(), truth.end());
    truth.erase(std::unique(truth.begin(), truth.end()), truth.end());

    std::vector<std::vector<TermId>> rows(served.rows.NumRows());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (VarId v = 0; v < static_cast<VarId>(served.var_names.size());
           ++v) {
        const int c = served.rows.ColumnOf(v);
        rows[r].push_back(c < 0 ? kInvalidTermId : served.rows.At(r, c));
      }
    }
    std::sort(rows.begin(), rows.end());
    EXPECT_EQ(rows, truth);
  }
}

}  // namespace
}  // namespace parqo
