// Plan execution on the simulated cluster. Every operator of Section II-D
// is implemented for real over the partitioned stores:
//
//   scan        - each node scans its local partition for pattern matches;
//   local join  - each node joins its local inputs, no communication;
//   broadcast   - the k-1 globally smaller inputs are gathered and handed
//                 to every node holding the largest input's partitions;
//   repartition - all inputs are re-hashed on the cmd's join variable,
//                 then joined per node on all shared variables.
//
// Alongside the actual result, the executor reports ExecMetrics: the
// cost-model time of Eq. 3/4 evaluated with *measured* cardinalities
// (the paper's "query processing time" proxy in this reproduction — see
// DESIGN.md), plus raw I/O and network row counts and wall time.
//
// Failure semantics (DESIGN.md section 11): under an active FaultScope
// (common/fault.h) a node can crash mid-operator and a shipment can be
// dropped. The executor detects both, marks crashed nodes degraded for
// the rest of the query, re-executes the lost partition work on a
// surviving node (re-reading the partition from the durable NodeStore),
// and re-ships only the lost batches — all bounded by a RetryPolicy.
// When recovery is impossible the query returns a typed
// StatusCode::kUnavailable and zeroed metrics; it never returns a
// silently wrong result. With no FaultScope the fault path costs one
// null-pointer check per operator work item and allocates nothing.

#ifndef PARQO_EXEC_EXECUTOR_H_
#define PARQO_EXEC_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "cost/cost_model.h"
#include "exec/cluster.h"
#include "plan/plan.h"
#include "query/join_graph.h"
#include "sparql/query.h"

namespace parqo {

struct ExecMetrics {
  /// Eq. 3 plan time with measured input/output cardinalities.
  double measured_cost = 0;
  std::uint64_t rows_scanned = 0;
  std::uint64_t rows_transferred = 0;
  /// Broadcast/repartition operators executed. In a MapReduce-like
  /// engine each one is a distributed job with fixed scheduling latency,
  /// which is why local plans win by an order of magnitude in the paper;
  /// benches add `overhead * distributed_joins` to model that.
  std::uint64_t distributed_joins = 0;
  std::uint64_t result_rows = 0;  ///< After global deduplication.
  double wall_seconds = 0;

  /// Joins that ran the merge kernel instead of the hash kernel because
  /// both inputs arrived sorted on their single shared variable. The
  /// kernels emit bit-identical tables, so this counts a choice made from
  /// observed sortedness and changes no result.
  std::uint64_t merge_joins = 0;

  /// Per-operator estimated-vs-measured cardinality, recorded only when
  /// Executor::set_record_op_cardinalities(true) is set (bench/report
  /// use — it costs one global gather + dedup per operator). `actual` is
  /// the operator's deduplicated GLOBAL output-row count, the quantity
  /// the Eq. 10/11 estimator's PlanNode::cardinality predicts.
  struct OpCardinality {
    std::string op;        ///< "scan" | "local" | "broadcast" | "repartition"
    std::vector<int> tps;  ///< Pattern indexes the subtree covers.
    double estimated = 0;  ///< PlanNode::cardinality at planning time.
    std::uint64_t actual = 0;
  };
  std::vector<OpCardinality> op_cards;

  /// Sum of every operator's Eq. 3 cost, ignoring the max over children:
  /// the total work. measured_cost is the critical path, so
  /// measured_cost / total_work is the plan's inherent parallelism.
  double total_work = 0;
  /// rows_transferred weighted by row width (8-byte TermIds).
  std::uint64_t bytes_shipped = 0;

  /// Per-node attribution, sized to the cluster by Execute(). Each
  /// vector's sum equals the matching scalar above exactly
  /// (node_rows_received sums to rows_transferred).
  std::vector<std::uint64_t> node_rows_scanned;
  std::vector<std::uint64_t> node_rows_received;
  std::vector<std::uint64_t> node_rows_joined;  ///< Join output rows.

  /// One entry per network edge: a broadcast ships one gathered input to
  /// every node; a repartition re-hashes one input.
  struct EdgeTraffic {
    std::string op;  // "broadcast" | "repartition"
    std::uint64_t rows = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<EdgeTraffic> edges;

  /// Recovery accounting (all zero on a fault-free run). The scalar
  /// traffic totals above only count *successful* deliveries, so the
  /// per-node reconciliation invariant survives faults; the wasted
  /// traffic of re-sent batches shows up in rows_reshipped instead.
  /// True when Execute() returned a non-OK status: every other field is
  /// zeroed so partial per-operator sums can never leak into reports.
  bool failed = false;
  std::uint64_t recovery_attempts = 0;    ///< Retry attempts after faults.
  std::uint64_t operators_reexecuted = 0; ///< Work items that needed > 1 try.
  std::uint64_t rows_reshipped = 0;       ///< Rows sent again after a drop.
  std::uint64_t shipments_dropped = 0;    ///< Batches the network ate.
  std::vector<int> degraded_nodes;        ///< Nodes that crashed, in order.

  /// Health instrumentation (exec/health.h; populated only when the run
  /// is instrumented, i.e. a FaultScope is active or a
  /// NodeHealthRegistry is attached — the plain path stays untimed).
  /// Per-PHYSICAL-node attribution: re-homed and hedged work counts
  /// toward the node that actually executed it.
  std::vector<double> node_busy_seconds;      ///< Wall time in work items.
  std::vector<std::uint64_t> node_ops;        ///< Work items completed.
  std::vector<std::uint64_t> node_failures;   ///< Probe failures detected.
  std::uint64_t hedged_ops = 0;  ///< Speculative re-executions launched.
  std::uint64_t hedge_wins = 0;  ///< Hedges that completed first.
  /// Nodes pre-emptively routed around because their circuit breaker was
  /// open at dispatch (never probed, so they cost no mid-query crash
  /// detection and do not appear in degraded_nodes).
  std::vector<int> quarantined_nodes;
};

/// Resolves a pattern's constants against the dictionary and its variables
/// against the join graph's VarIds.
ResolvedPattern BindPattern(const TriplePattern& pattern,
                            const JoinGraph& jg, const Dictionary& dict);

/// There is one engine. The type remains because callers, perfbench among
/// them, still pass ServerConfig::engine to the Executor constructor.
enum class ExecEngine { kBatch };

class NodeHealthRegistry;  // exec/health.h

class Executor {
 public:
  /// All references must outlive the executor. With `parallel_nodes` the
  /// per-node work of every operator (scans and joins) runs on one
  /// thread per simulated node, like the real cluster would. `retry`
  /// bounds fault recovery; it is irrelevant without an active
  /// FaultScope. `health` (optional, not owned) attaches the cross-query
  /// resilience layer: open-breaker nodes are quarantined at dispatch,
  /// straggling work is hedged against the registry's threshold, and
  /// mid-query crash detections are reported back immediately. `engine`
  /// is ignored (see ExecEngine).
  Executor(const Cluster& cluster, const JoinGraph& jg,
           CostParams cost_params, bool parallel_nodes = false,
           RetryPolicy retry = RetryPolicy{},
           ExecEngine engine = ExecEngine::kBatch,
           NodeHealthRegistry* health = nullptr);

  /// Executes `plan` and returns the deduplicated global result over all
  /// of the query's variables. Fills `metrics` if non-null; on error the
  /// metrics are zeroed with `failed` set (never partial sums).
  Result<BindingTable> Execute(const PlanNode& plan, ExecMetrics* metrics);

  /// Records per-operator estimated-vs-measured cardinality into
  /// ExecMetrics::op_cards. Off by default: it adds one global gather +
  /// dedup per operator, which benches opt into but queries do not pay.
  void set_record_op_cardinalities(bool on) { record_op_cards_ = on; }

 private:
  struct DistTable;  // per-node tables; defined in the .cc

  /// Joins two node-local inputs: the merge kernel when both arrive
  /// sorted on their single shared variable, else the hash kernel.
  BindingTable Join(const BindingTable& left,
                    const BindingTable& right) const;

  const Cluster& cluster_;
  const JoinGraph& jg_;
  CostModel cost_model_;
  bool parallel_nodes_;
  RetryPolicy retry_;
  NodeHealthRegistry* health_;
  bool record_op_cards_ = false;
  /// Merge-kernel picks this run; workers bump it concurrently, Execute()
  /// snapshots it into ExecMetrics::merge_joins.
  // parqo-lint: allow(guarded-field) atomic counter, relaxed order is fine
  mutable std::atomic<std::uint64_t> merge_joins_{0};
};

/// Convenience: executes and projects onto the query's SELECT variables.
Result<BindingTable> ExecuteAndProject(Executor& executor,
                                       const PlanNode& plan,
                                       const ParsedQuery& query,
                                       const JoinGraph& jg,
                                       ExecMetrics* metrics);

}  // namespace parqo

#endif  // PARQO_EXEC_EXECUTOR_H_
