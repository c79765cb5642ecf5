// The serving layer (DESIGN.md section 14): a session pipeline that
// drives concurrent clients through canonicalize -> plan-cache lookup ->
// (miss) parallel optimize -> execute on the simulated cluster. This is
// the multi-user SPARQL endpoint shape the paper's engines assume
// (Partout, PHD-Store): a stream of templated queries whose optimization
// cost must be paid once per template, not once per request.
//
// Pipeline per request:
//
//   1. admission  - a fixed cap on in-flight requests; at capacity the
//                   request is rejected with StatusCode::kOverloaded
//                   before any work.
//   2. signature  - CanonicalizeBgp maps the BGP to its canonical form
//                   (server/signature.h); execution happens in canonical
//                   space and ServeResult::var_names maps back.
//   3. cache      - sharded LRU keyed on signature x partitioning scheme,
//                   copy-out semantics (server/plan_cache.h).
//   4. optimize   - on a miss: PreparedQuery + Optimize() under the
//                   per-query deadline (OptimizeOptions::deadline).
//                   Plans of a stopped search (timed_out) are cached
//                   with the degraded flag; a later unhurried hit
//                   re-optimizes and upgrades the entry rather than
//                   being poisoned by it.
//   5. execute    - Executor on the shared cluster; the PR 4 fault layer
//                   (FaultScope) runs underneath unchanged, so recovery
//                   happens while serving and an unrecoverable query
//                   returns typed kUnavailable, never a wrong result.
//
// Self-healing (DESIGN.md section 16): the server owns a
// NodeHealthRegistry (exec/health.h) fed every session's ExecMetrics.
// Its circuit breakers make the executor route around known-sick nodes
// BEFORE dispatch and its latency quantile drives hedged straggler
// re-execution; an optional fixed cluster-wide RetryBudget caps the
// TOTAL retries concurrent sessions may spend (exhaustion degrades to
// typed kUnavailable instead of a retry storm).
//
// Execution scratch: the server keeps the executor's buffers
// (exec/executor.h's ExecScratch) between requests. A request borrows an
// idle scratch set for its Execute and returns it after, so the server
// holds at most one per request it ever had in flight at once, which
// admission bounds; a warm request's work items allocate nothing.
//
// Thread safety: Serve() is safe to call from any number of threads.
// Shared state is the sharded cache, the lock-free admission counter,
// the health registry and the idle scratch list; everything else
// per-request lives on the session's stack. Every lock a request can
// touch (cache shards at LockRank::kCacheShard, health at kHealth,
// pool/fault/trace below them, the scratch list at the kLeaf leaf) sits
// in the static hierarchy of common/thread_annotations.h.

#ifndef PARQO_SERVER_SERVER_H_
#define PARQO_SERVER_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "exec/binding_table.h"
#include "exec/cluster.h"
#include "exec/executor.h"
#include "exec/health.h"
#include "optimizer/prepared_query.h"
#include "rdf/graph.h"
#include "server/admission.h"
#include "server/plan_cache.h"
#include "server/signature.h"
#include "sparql/query.h"

namespace parqo {

struct ServerConfig {
  Algorithm algorithm = Algorithm::kTdAuto;
  /// Base optimizer options; the per-query deadline below overwrites
  /// `options.deadline` on every miss.
  OptimizeOptions options;
  /// Per-query optimization deadline in seconds (the paper's 600 s
  /// cutoff by default); <= 0 serves without one.
  double query_deadline_seconds = 600;
  /// In-flight capacity for admission control.
  int max_in_flight = 64;
  int cache_shards = 8;
  std::size_t cache_shard_capacity = 64;
  /// Serving pool size (ServeConcurrent workers); <= 0 selects
  /// hardware_concurrency.
  int num_threads = 0;
  /// Executor knobs; `retry` bounds fault recovery under a FaultScope.
  bool parallel_exec_nodes = false;
  ExecEngine engine = ExecEngine::kBatch;
  RetryPolicy retry;

  /// Self-healing serving (DESIGN.md section 16). With `enable_health`
  /// the server owns a NodeHealthRegistry: sessions feed it, breakers
  /// quarantine sick nodes, stragglers are hedged. Off restores the
  /// memoryless pre-health behavior: no quarantine and no hedging.
  bool enable_health = true;
  HealthConfig health;
  /// Cluster-wide retry budget: total retry attempts across ALL
  /// concurrent sessions (0 = no shared budget, per-query policy only).
  /// `retry.budget` is overwritten to point at the server-owned bucket.
  std::uint64_t retry_budget = 0;
};

/// Everything one served request produced.
struct ServeResult {
  /// kOverloaded (admission), kInvalidArgument (empty/oversized BGP),
  /// kDeadlineExceeded (the optimizer returned no plan), kUnavailable
  /// (execution faults exhausted retries) — or OK.
  Status status;

  bool cache_hit = false;       ///< Plan came from the cache.
  bool degraded = false;        ///< The plan's search was stopped early.
  bool reoptimized = false;     ///< A degraded hit was re-optimized.
  bool exact_signature = true;  ///< CanonicalBgp::exact.

  double optimize_seconds = 0;  ///< 0 on a pure cache hit.
  double execute_seconds = 0;
  double total_seconds = 0;  ///< End-to-end, admission to result.

  double plan_cost = 0;
  Algorithm algorithm_used = Algorithm::kTdAuto;
  std::string signature;
  PlanNodePtr plan;  ///< In canonical space; shared with the cache.

  /// Deduplicated bindings over all query variables, schema'd by the
  /// canonical JoinGraph's VarIds; canonical variable "xk" corresponds to
  /// var_names[k] in the caller's spelling.
  BindingTable rows;
  std::vector<std::string> var_names;
  ExecMetrics exec_metrics;
};

/// The idle execution scratch sets (exec/executor.h) of one server. A
/// request borrows one for its Execute and returns it after; a new set
/// is made only when every set is lent out, so the shelf never holds
/// more than the most requests that were ever executing at once.
class ScratchShelf {
 public:
  std::unique_ptr<ExecScratch> Borrow();
  void Return(std::unique_ptr<ExecScratch> scratch);

 private:
  Mutex mu_{LockRank::kLeaf};
  std::vector<std::unique_ptr<ExecScratch>> idle_ PARQO_GUARDED_BY(mu_);
};

class QueryServer {
 public:
  /// `graph`, `cluster`, and `partitioner` are borrowed and must outlive
  /// the server. `cluster` must have been partitioned by `partitioner` —
  /// the cache key includes partitioner.name(), which is what keeps plans
  /// coherent when the same server binary serves differently-partitioned
  /// clusters.
  QueryServer(const RdfGraph& graph, const Cluster& cluster,
              const Partitioner& partitioner, ServerConfig config);

  /// Serves one query end to end. Thread-safe. `deadline_seconds`
  /// overrides the config's per-query optimization deadline for this
  /// request: < 0 uses the config, 0 serves without a deadline, > 0 sets
  /// that budget. A request with a comfortable budget that hits a
  /// degraded cache entry is exactly the upgrade path described above.
  ServeResult Serve(const std::vector<TriplePattern>& patterns,
                    double deadline_seconds = -1);

  /// Replays `stream` with up to `clients` concurrent sessions on the
  /// serving pool (the calling thread participates). Results come back
  /// in stream order.
  std::vector<ServeResult> ServeConcurrent(
      const std::vector<std::vector<TriplePattern>>& stream, int clients);

  /// As above, but hands each result to `consume(index, result)` the
  /// moment its session finishes instead of accumulating every result
  /// table for the whole stream (large replays would otherwise hold all
  /// materialized bindings at once). `consume` runs on the serving pool,
  /// concurrently for distinct indexes, exactly once per index.
  void ServeConcurrent(
      const std::vector<std::vector<TriplePattern>>& stream, int clients,
      const std::function<void(std::size_t, ServeResult)>& consume);

  PlanCache& cache() { return cache_; }
  AdmissionController& admission() { return admission_; }
  const ServerConfig& config() const { return config_; }
  /// Null when the matching config knob is off.
  NodeHealthRegistry* health() { return health_.get(); }
  RetryBudget* retry_budget() { return retry_budget_.get(); }

 private:
  ServeResult ServeAdmitted(const std::vector<TriplePattern>& patterns,
                            double deadline_seconds);

  const RdfGraph& graph_;
  const Cluster& cluster_;
  const Partitioner& partitioner_;
  ServerConfig config_;
  StatsSource stats_;
  std::unique_ptr<NodeHealthRegistry> health_;
  std::unique_ptr<RetryBudget> retry_budget_;
  PlanCache cache_;
  AdmissionController admission_;
  ScratchShelf scratch_;
  /// Runs ServeConcurrent's sessions.
  ThreadPool pool_;
};

}  // namespace parqo

#endif  // PARQO_SERVER_SERVER_H_
