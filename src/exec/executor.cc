#include "exec/executor.h"

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/morsel.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/health.h"
#include "exec/join_kernel.h"
#include "partition/partitioner.h"

namespace parqo {
namespace {

// Sideways information passing (DESIGN.md section 13): a join builds a
// key filter for a later child only when the sibling feeding it has at
// most 1/kFilterRatio of the child's estimated rows. A filter from a
// sibling of comparable size tends to remove nothing and still costs a
// probe per scanned row.
constexpr double kFilterRatio = 4;

// A query's variables as a bitmask over VarIds (at most three per
// pattern).
using VarSet = std::bitset<3 * TpSet::kMaxSize>;

// What sideways information passing needs to know about a plan node,
// computed once per Execute in pre-order.
struct PlanInfo {
  VarSet vars;              // every variable the subtree binds
  bool node_local = true;   // only scans and local joins: rows never move
  std::size_t size = 1;     // plan nodes in the subtree
};

void Annotate(const PlanNode& node, const JoinGraph& jg,
              std::vector<PlanInfo>& info) {
  const std::size_t at = info.size();
  info.emplace_back();
  if (node.kind == PlanNode::Kind::kScan) {
    for (VarId v : jg.VarsOf(node.tp)) info[at].vars.set(v);
    return;
  }
  bool node_local = node.method == JoinMethod::kLocal;
  VarSet vars;
  for (const PlanNodePtr& c : node.children) {
    const std::size_t child = info.size();
    Annotate(*c, jg, info);
    vars |= info[child].vars;
    node_local = node_local && info[child].node_local;
  }
  info[at].vars = vars;
  info[at].node_local = node_local;
  info[at].size = info.size() - at;
}

// A key filter pushed from a join into a child subtree: rows whose `var`
// binding is not a key can never reach the join's output. One set for
// every node, or one per node when rows cannot move between nodes.
struct KeyFilter {
  VarId var = kInvalidVarId;
  std::vector<KeySet> sets;
  const KeySet& For(int node) const {
    return sets.size() == 1 ? sets[0] : sets[node];
  }
};

// Sorted distinct bindings of `var` over `tables`.
std::vector<TermId> DistinctKeys(std::span<const BindingTable> tables,
                                 VarId var) {
  std::vector<TermId> keys;
  for (const BindingTable& t : tables) {
    const int col = t.ColumnOf(var);
    PARQO_DCHECK(col >= 0);
    const std::vector<TermId>& c = t.Column(col);
    keys.insert(keys.end(), c.begin(), c.end());
  }
  // A scan sorted on `var` hands over a sorted column.
  if (!std::is_sorted(keys.begin(), keys.end())) {
    std::sort(keys.begin(), keys.end());
  }
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// The filter a join pushes into a child: on the variable of `shared`
// with the fewest distinct keys in the sibling's `tables`, one key set
// per node or one for all. No variable in `shared` means no filter
// (var == kInvalidVarId).
KeyFilter BuildFilter(const std::vector<BindingTable>& tables,
                      const std::vector<VarId>& schema, const VarSet& shared,
                      bool per_node) {
  KeyFilter f;
  std::vector<std::vector<TermId>> best;
  std::size_t best_size = 0;
  for (VarId v : schema) {
    if (!shared.test(v)) continue;
    std::vector<std::vector<TermId>> keys;
    std::size_t size = 0;
    if (per_node) {
      for (const BindingTable& t : tables) {
        keys.push_back(DistinctKeys({&t, 1}, v));
        size += keys.back().size();
      }
    } else {
      keys.push_back(DistinctKeys(tables, v));
      size = keys.back().size();
    }
    if (f.var == kInvalidVarId || size < best_size) {
      f.var = v;
      best = std::move(keys);
      best_size = size;
    }
  }
  for (std::vector<TermId>& k : best) f.sets.emplace_back(std::move(k));
  return f;
}

// Concurrency cap for simulated-node work: beyond this many workers the
// extra threads only add scheduling overhead (cluster sizes in the
// hundreds used to spawn one thread each).
constexpr int kMaxNodeWorkers = 32;

// Runs fn(0..n-1); when parallel, the simulated cluster's nodes work
// concurrently on the shared pool (bounded workers, no per-node thread
// spawn). fn must only touch node-local state.
void ForEachNode(int n, bool parallel,
                 const std::function<void(int)>& fn) {
  if (!parallel || n <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool::Global().ParallelFor(n, fn, kMaxNodeWorkers);
}

// Per-run fault-recovery state. `host[p]` is the physical node currently
// executing logical partition p's share of every operator; identity until
// a crash re-homes the dead node's partitions onto a survivor (the
// partition data itself lives in the durable NodeStore, so the survivor
// re-reads it). Null `fault` means the layer is disabled and none of the
// vectors are even allocated.
struct Recovery {
  // parqo-lint: allow(guarded-field) installed once before workers start
  FaultPlan* fault = nullptr;
  // parqo-lint: allow(guarded-field) installed once before workers start
  NodeHealthRegistry* health = nullptr;
  // parqo-lint: allow(guarded-field) read-only after per-run setup
  RetryPolicy policy;

  /// Whether the run pays for per-item probes and timing: either fault
  /// injection is active or a health registry wants latency samples. The
  /// plain path stays byte-for-byte the un-instrumented executor.
  bool instrumented() const { return fault != nullptr || health != nullptr; }
  /// Guards alive/host/alive_count plus the ExecMetrics recovery fields
  /// (recovery_attempts / operators_reexecuted / degraded_nodes), which
  /// live outside this struct and so cannot carry the GUARDED_BY
  /// themselves. Never held across BeginNodeOp, the retry backoff sleep,
  /// or the work item itself.
  Mutex mu{LockRank::kExecRecovery};
  std::vector<char> alive PARQO_GUARDED_BY(mu);
  std::vector<int> host PARQO_GUARDED_BY(mu);
  int alive_count PARQO_GUARDED_BY(mu) = 0;
};

// Re-homes every partition hosted by (already-marked-dead) `node` onto
// the lowest-id survivor; -1 when nobody is left and callers will report
// kUnavailable.
void RehomeLocked(Recovery& rec, int node) PARQO_REQUIRES(rec.mu) {
  int next = -1;
  for (std::size_t i = 0; i < rec.alive.size(); ++i) {
    if (rec.alive[i]) {
      next = static_cast<int>(i);
      break;
    }
  }
  if (next < 0) return;
  for (int& h : rec.host) {
    if (h == node) h = next;
  }
}

// Marks `node` crashed (idempotent under races) and re-homes every
// partition it hosted onto the lowest-id survivor.
void CrashNode(Recovery& rec, ExecMetrics& m, int node) {
  MutexLock lock(rec.mu);
  if (!rec.alive[node]) return;
  rec.alive[node] = 0;
  --rec.alive_count;
  m.degraded_nodes.push_back(node);
  RehomeLocked(rec, node);
}

// The executor's one retry loop. Each round runs `precheck()` first (a
// non-OK status ends the loop with it), then asks for another attempt;
// out of attempts it fails kUnavailable with "<what>: cluster retry
// budget exhausted" or "<what> <verb> after N attempts". `on_retry()`
// accounts every attempt after the first, then `attempt(n)` runs the
// 0-based attempt n: true ends the loop OK, false backs off and goes
// round again.
template <typename What, typename Precheck, typename OnRetry,
          typename Attempt>
Status RetryLoop(const RetryPolicy& policy, std::uint64_t seed,
                 What&& what, const char* verb, Precheck&& precheck,
                 OnRetry&& on_retry, Attempt&& attempt) {
  Retry retry(policy, seed);
  for (;;) {
    Status st = precheck();
    if (!st.ok()) return st;
    if (!retry.ShouldRetry()) {
      if (retry.budget_exhausted()) {
        return Status::Unavailable(what() +
                                   ": cluster retry budget exhausted");
      }
      return Status::Unavailable(
          what() + " " + verb + " after " +
          std::to_string(retry.attempts_started()) + " attempts");
    }
    const int n = retry.BeginAttempt();
    if (n > 0) on_retry();
    if (attempt(n)) return Status::Ok();
    SleepSeconds(retry.NextBackoffSeconds());
  }
}

// Runs logical partition `part`'s work item for one operator with crash
// detection: the hosting node is probed before the work runs, so a fired
// crash loses the whole item (nothing partial is observed) and the item
// is retried on whatever node hosts the partition after re-homing.
// `work(part)` must be runnable at most once (it may move its inputs).
template <typename Work>
Status RunOnePartition(Recovery& rec, ExecMetrics& m, const char* op,
                       int part, Work& work) {
  int host = -1;
  return RetryLoop(
      rec.policy, 0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(part),
      [&] { return std::string(op) + " on partition " + std::to_string(part); },
      "failed",
      [&] {
        MutexLock lock(rec.mu);
        if (rec.alive_count == 0) {
          return Status::Unavailable(
              std::string(op) + ": no surviving node can host partition " +
              std::to_string(part));
        }
        host = rec.host[part];
        return Status::Ok();
      },
      [&] {
        MutexLock lock(rec.mu);
        ++m.recovery_attempts;
      },
      [&](int attempt) {
        // Hedged straggler mitigation. The attempt's in-flight time on
        // the simulated cluster IS its injected delay, known at dispatch
        // (FaultPlan::PeekDelaySeconds), so the "elapsed > threshold,
        // launch a speculative copy" watchdog collapses to a
        // deterministic check. Winner rule: the copy with the strictly
        // smaller in-flight delay completes first; ties keep the primary.
        // Both copies would read the same durable partition (work(part)
        // is keyed on the LOGICAL partition; the host only decides whose
        // fault schedule is probed), so the winner's rows are
        // bit-identical to the non-hedged run.
        if (rec.health != nullptr && rec.fault != nullptr) {
          double delay = rec.fault->PeekDelaySeconds(host);
          if (delay > rec.health->HedgeThresholdSeconds()) {
            int hedge = -1;
            double hedge_delay = delay;
            MutexLock lock(rec.mu);
            for (std::size_t i = 0; i < rec.alive.size(); ++i) {
              int cand = static_cast<int>(i);
              if (!rec.alive[i] || cand == host) continue;
              double d = rec.fault->PeekDelaySeconds(cand);
              if (d <= delay) {
                hedge = cand;
                hedge_delay = d;
                break;
              }
            }
            if (hedge >= 0) {
              ++m.hedged_ops;
              if (hedge_delay < delay) {
                ++m.hedge_wins;
                host = hedge;  // the hedge wins; the straggler is dropped
              }
            }
          }
        }
        Stopwatch op_watch;
        if (rec.fault != nullptr && !rec.fault->BeginNodeOp(host)) {
          if (rec.health != nullptr) rec.health->RecordNodeFailure(host);
          {
            MutexLock lock(rec.mu);
            ++m.node_failures[host];
          }
          CrashNode(rec, m, host);
          return false;
        }
        work(part);
        MutexLock lock(rec.mu);
        m.node_busy_seconds[host] += op_watch.ElapsedSeconds();
        ++m.node_ops[host];
        if (attempt > 0) ++m.operators_reexecuted;
        return true;
      });
}

// Fans one operator's per-partition work over the simulated nodes. The
// disabled path is byte-for-byte the old executor: no Status vector, no
// probes, no allocations.
template <typename Work>
Status RunPartitioned(Recovery& rec, ExecMetrics& m, const char* op, int n,
                      bool parallel, Work&& work) {
  if (!rec.instrumented()) {
    ForEachNode(n, parallel, work);
    return Status::Ok();
  }
  std::vector<Status> statuses(n);
  ForEachNode(n, parallel, [&](int i) {
    statuses[i] = RunOnePartition(rec, m, op, i, work);
  });
  for (Status& st : statuses) {
    if (!st.ok()) return std::move(st);
  }
  return Status::Ok();
}

// Delivers one shipment batch of `rows` rows to partition `target`,
// re-shipping (only) this batch when the flaky network drops it. Counts
// node_rows_received on successful delivery — the reconciliation
// invariant (received sums == rows_transferred) holds under faults
// because dropped copies are accounted separately in rows_reshipped.
// Empty batches carry no payload and are not probed. Driver-thread only.
Status DeliverBatch(Recovery& rec, ExecMetrics& m, const char* op,
                    std::uint64_t rows, int target) {
  if (rec.fault == nullptr || rows == 0) {
    m.node_rows_received[target] += rows;
    return Status::Ok();
  }
  return RetryLoop(
      rec.policy, 0x2545f4914f6cdd1dULL ^ static_cast<std::uint64_t>(target),
      [&] {
        return std::string(op) + " shipment to node " +
               std::to_string(target);
      },
      "lost", [] { return Status::Ok(); }, [&] { ++m.recovery_attempts; },
      [&](int) {
        if (rec.fault->DeliverShipment()) {
          m.node_rows_received[target] += rows;
          return true;
        }
        ++m.shipments_dropped;
        m.rows_reshipped += rows;
        return false;
      });
}

const char* SpanName(const PlanNode& node) {
  if (node.kind == PlanNode::Kind::kScan) return "exec/scan";
  switch (node.method) {
    case JoinMethod::kLocal: return "exec/local_join";
    case JoinMethod::kBroadcast: return "exec/broadcast_join";
    case JoinMethod::kRepartition: return "exec/repartition_join";
  }
  return "exec/join";
}

// 8-byte TermIds; schema width is the row's wire size.
std::uint64_t RowBytes(const std::vector<VarId>& schema) {
  return static_cast<std::uint64_t>(schema.size()) * sizeof(TermId);
}

}  // namespace

ResolvedPattern BindPattern(const TriplePattern& pattern,
                            const JoinGraph& jg, const Dictionary& dict) {
  ResolvedPattern out;
  auto bind = [&](const PatternTerm& t, TermId* c, VarId* v) {
    if (t.IsVar()) {
      *v = jg.FindVar(t.var);
    } else {
      *c = dict.Lookup(t.term);
      if (*c == kInvalidTermId) out.unmatchable = true;
    }
  };
  bind(pattern.s, &out.s, &out.var_s);
  bind(pattern.p, &out.p, &out.var_p);
  bind(pattern.o, &out.o, &out.var_o);
  for (VarId v : {out.var_s, out.var_p, out.var_o}) {
    if (v != kInvalidVarId &&
        std::find(out.schema.begin(), out.schema.end(), v) ==
            out.schema.end()) {
      out.schema.push_back(v);
    }
  }
  std::sort(out.schema.begin(), out.schema.end());
  return out;
}

struct Executor::DistTable {
  std::vector<BindingTable> per_node;
  std::vector<VarId> schema;

  std::uint64_t GlobalRows() const {
    std::uint64_t sum = 0;
    for (const BindingTable& t : per_node) sum += t.NumRows();
    return sum;
  }
};

Executor::Executor(const Cluster& cluster, const JoinGraph& jg,
                   CostParams cost_params, bool parallel_nodes,
                   RetryPolicy retry, ExecEngine /*engine*/,
                   NodeHealthRegistry* health)
    : cluster_(cluster),
      jg_(jg),
      cost_model_(cost_params),
      parallel_nodes_(parallel_nodes),
      retry_(retry),
      health_(health) {}

BindingTable Executor::Join(const BindingTable& left,
                            const BindingTable& right) const {
  BatchJoinOptions opts;
  // Morsel parallelism composes with the per-node ForEachNode fan-out:
  // both run on the same nest-safe pool.
  opts.parallel = parallel_nodes_;
  // Merge kernel when both inputs arrive sorted on the single shared
  // variable (index scans establish the order; order-preserving
  // operators propagate it). Bit-identical to the hash kernel.
  if (MergeJoinKey(left, right) != kInvalidVarId) {
    merge_joins_.fetch_add(1, std::memory_order_relaxed);
    return BatchMergeJoin(left, right, opts);
  }
  return BatchHashJoin(left, right, opts);
}

Result<BindingTable> Executor::Execute(const PlanNode& plan,
                                       ExecMetrics* metrics) {
  Stopwatch watch;
  ExecMetrics local_metrics;
  ExecMetrics& m = metrics != nullptr ? *metrics : local_metrics;
  m = ExecMetrics{};
  merge_joins_.store(0, std::memory_order_relaxed);

  const int n = cluster_.num_nodes();
  m.node_rows_scanned.assign(n, 0);
  m.node_rows_received.assign(n, 0);
  m.node_rows_joined.assign(n, 0);
  m.node_busy_seconds.assign(n, 0.0);
  m.node_ops.assign(n, 0);
  m.node_failures.assign(n, 0);

  Recovery rec;
  rec.fault = ActiveFaultPlan();
  rec.health = health_;
  if (rec.instrumented()) {
    if (rec.fault != nullptr) PARQO_CHECK(rec.fault->num_nodes() >= n);
    rec.policy = retry_;
    rec.alive.assign(n, 1);
    rec.host.resize(n);
    std::iota(rec.host.begin(), rec.host.end(), 0);
    rec.alive_count = n;
  }
  if (rec.health != nullptr) {
    PARQO_CHECK(rec.health->num_nodes() >= n);
    // Pre-emptive quarantine: partitions hosted by open-breaker nodes
    // are re-homed to survivors BEFORE any work dispatches, so the
    // session never probes (and never crash-detects) a known-sick node.
    // The last survivor is never quarantined — a query beats no query.
    MutexLock lock(rec.mu);
    for (int i = 0; i < n; ++i) {
      if (rec.alive_count <= 1) break;
      if (!rec.health->AllowRoute(i)) {
        rec.alive[i] = 0;
        --rec.alive_count;
        m.quarantined_nodes.push_back(i);
      }
    }
    for (int q : m.quarantined_nodes) RehomeLocked(rec, q);
  }

  // Recursive evaluation; fills the distributed table and the measured
  // Eq. 3 cost of the subtree, or stops at the first unrecoverable fault.
  struct Frame {
    DistTable table;
    double cost = 0;
  };

  // Opt-in estimated-vs-measured cardinality per operator. Driver-thread
  // only (eval recursion runs on the driver; workers only fill tables).
  auto record_card = [&](const PlanNode& node, const DistTable& table,
                         const char* op) {
    if (!record_op_cards_) return;
    BindingTable g(table.schema);
    for (const BindingTable& t : table.per_node) g.AppendFrom(t);
    g.Deduplicate();
    ExecMetrics::OpCardinality oc;
    oc.op = op;
    for (int tp : node.tps) oc.tps.push_back(tp);
    oc.estimated = node.cardinality;
    oc.actual = g.NumRows();
    m.op_cards.push_back(std::move(oc));
  };
  // Sideways information passing needs each plan node's variables; the
  // recording pass runs unfiltered, so it skips the annotation.
  std::vector<PlanInfo> info;
  if (!record_op_cards_) Annotate(plan, jg_, info);

  std::function<Status(const PlanNode&, std::size_t,
                       std::span<const KeyFilter* const>, Frame*)>
      eval = [&](const PlanNode& node, std::size_t at,
                 std::span<const KeyFilter* const> filters,
                 Frame* frame) -> Status {
    // The span covers the whole subtree; nested operator spans on the
    // same thread render as a flame graph in the trace viewer.
    TraceSpan span(SpanName(node), "exec");
    if (node.kind == PlanNode::Kind::kScan) {
      ResolvedPattern rp =
          BindPattern(jg_.pattern(node.tp), jg_, cluster_.graph().dict());
      frame->table.schema = rp.schema;
      frame->table.per_node.resize(n);
      PARQO_RETURN_IF_ERROR(RunPartitioned(
          rec, m, "scan", n, parallel_nodes_, [&](int i) {
            // Several filters can reach one leaf; the fewest keys prune
            // the most.
            ScanFilter sf;
            for (const KeyFilter* f : filters) {
              const KeySet& keys = f->For(i);
              if (sf.keys == nullptr || keys.size() < sf.keys->size()) {
                sf = {f->var, &keys};
              }
            }
            frame->table.per_node[i] = cluster_.node(i).Scan(
                rp, kDefaultMorselRows, parallel_nodes_, sf);
          }));
      for (int i = 0; i < n; ++i) {
        std::uint64_t rows = frame->table.per_node[i].NumRows();
        m.rows_scanned += rows;
        m.node_rows_scanned[i] += rows;
      }
      record_card(node, frame->table, "scan");
      frame->cost = 0;
      return Status::Ok();
    }

    // Evaluate children, smallest estimate first, each later child
    // filtered by the keys of a smaller evaluated sibling. The join and
    // Eq. 3 still see the children in plan order. The recording pass
    // keeps plan order and runs unfiltered, so op_cards report the
    // unreduced cardinalities the estimator predicts.
    const std::size_t k = node.children.size();
    std::vector<Frame> children(k);
    std::vector<std::size_t> order(k);
    std::iota(order.begin(), order.end(), 0);
    std::vector<std::size_t> pos(k);
    if (!record_op_cards_) {
      pos[0] = at + 1;
      for (std::size_t c = 1; c < k; ++c) {
        pos[c] = pos[c - 1] + info[pos[c - 1]].size;
      }
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return node.children[a]->cardinality <
                                node.children[b]->cardinality;
                       });
    }
    auto child_rows = [&](std::size_t c) {
      return children[c].table.GlobalRows();
    };
    std::vector<const KeyFilter*> child_filters;
    for (std::size_t idx = 0; idx < k; ++idx) {
      const std::size_t c = order[idx];
      child_filters.clear();
      KeyFilter own;
      if (!record_op_cards_) {
        for (const KeyFilter* f : filters) {
          if (info[pos[c]].vars.test(f->var)) child_filters.push_back(f);
        }
        // The smallest evaluated sibling lends its keys when it is well
        // below the child's estimate.
        std::size_t sib = order[0];
        for (std::size_t e = 1; e < idx; ++e) {
          if (child_rows(order[e]) < child_rows(sib)) sib = order[e];
        }
        if (idx > 0 && static_cast<double>(child_rows(sib)) * kFilterRatio <=
                           node.children[c]->cardinality) {
          // Per-node key sets are exact for a local join whose child
          // keeps every row on its node; anything else needs one global
          // set.
          own = BuildFilter(children[sib].table.per_node,
                            children[sib].table.schema,
                            info[pos[c]].vars & info[pos[sib]].vars,
                            node.method == JoinMethod::kLocal &&
                                info[pos[c]].node_local);
          if (own.var != kInvalidVarId) child_filters.push_back(&own);
        }
      }
      PARQO_RETURN_IF_ERROR(
          eval(*node.children[c], pos[c], child_filters, &children[c]));
    }
    double max_child_cost = 0;
    std::vector<double> input_cards;
    for (const Frame& f : children) {
      max_child_cost = std::max(max_child_cost, f.cost);
      input_cards.push_back(static_cast<double>(f.table.GlobalRows()));
    }

    if (node.method != JoinMethod::kLocal) ++m.distributed_joins;

    DistTable out;
    out.per_node.resize(n);
    switch (node.method) {
      case JoinMethod::kLocal: {
        PARQO_RETURN_IF_ERROR(RunPartitioned(
            rec, m, "local_join", n, parallel_nodes_, [&](int i) {
              BindingTable acc = children[0].table.per_node[i];
              for (std::size_t c = 1; c < children.size(); ++c) {
                acc = Join(acc, children[c].table.per_node[i]);
              }
              out.per_node[i] = std::move(acc);
            }));
        break;
      }
      case JoinMethod::kBroadcast: {
        // Keep the globally largest input partitioned; gather the rest.
        std::size_t largest = 0;
        for (std::size_t c = 1; c < children.size(); ++c) {
          if (children[c].table.GlobalRows() >
              children[largest].table.GlobalRows()) {
            largest = c;
          }
        }
        std::vector<BindingTable> gathered;
        for (std::size_t c = 0; c < children.size(); ++c) {
          if (c == largest) continue;
          BindingTable g(children[c].table.schema);
          for (const BindingTable& t : children[c].table.per_node) {
            g.AppendFrom(t);
          }
          g.Deduplicate();
          // One copy of the gathered input lands on every node; each
          // copy is one shipment the flaky network may eat.
          std::uint64_t rows = g.NumRows() * static_cast<std::uint64_t>(n);
          std::uint64_t bytes = rows * RowBytes(g.schema());
          for (int i = 0; i < n; ++i) {
            PARQO_RETURN_IF_ERROR(
                DeliverBatch(rec, m, "broadcast", g.NumRows(), i));
          }
          m.rows_transferred += rows;
          m.bytes_shipped += bytes;
          m.edges.push_back({"broadcast", rows, bytes});
          gathered.push_back(std::move(g));
        }
        PARQO_RETURN_IF_ERROR(RunPartitioned(
            rec, m, "broadcast_join", n, parallel_nodes_, [&](int i) {
              BindingTable acc = children[largest].table.per_node[i];
              for (const BindingTable& g : gathered) {
                acc = Join(acc, g);
              }
              out.per_node[i] = std::move(acc);
            }));
        break;
      }
      case JoinMethod::kRepartition: {
        // Re-hash every input on the cmd's join variable.
        std::vector<std::vector<BindingTable>> routed(children.size());
        for (std::size_t c = 0; c < children.size(); ++c) {
          const DistTable& in = children[c].table;
          routed[c].assign(n, BindingTable(in.schema));
          int col = -1;
          if (!in.per_node.empty()) {
            col = in.per_node[0].ColumnOf(node.join_var);
          }
          PARQO_CHECK(col >= 0);
          // Route column-wise: bucket each source table's row indexes by
          // target (ascending within a bucket), then ship every bucket
          // with one gather. Arrival order per target matches the old
          // per-row routing exactly.
          std::vector<std::vector<std::uint32_t>> route(n);
          for (const BindingTable& t : in.per_node) {
            for (std::vector<std::uint32_t>& b : route) b.clear();
            const std::vector<TermId>& keys = t.Column(col);
            for (std::size_t r = 0; r < t.NumRows(); ++r) {
              route[HashToNode(keys[r], n)].push_back(
                  static_cast<std::uint32_t>(r));
            }
            for (int target = 0; target < n; ++target) {
              routed[c][target].AppendGather(t, route[target].data(),
                                             route[target].size());
            }
          }
          // Deliver (and count) at the receiving end so per-node sums
          // reproduce the totals exactly: every routed row has one
          // target. One target's batch is one shipment.
          std::uint64_t edge_rows = 0;
          for (int t = 0; t < n; ++t) {
            std::uint64_t batch = routed[c][t].NumRows();
            PARQO_RETURN_IF_ERROR(
                DeliverBatch(rec, m, "repartition", batch, t));
            edge_rows += batch;
          }
          std::uint64_t edge_bytes = edge_rows * RowBytes(in.schema);
          m.rows_transferred += edge_rows;
          m.bytes_shipped += edge_bytes;
          m.edges.push_back({"repartition", edge_rows, edge_bytes});
          // Replicated source rows can meet at the target; dedup there.
          for (BindingTable& t : routed[c]) t.Deduplicate();
        }
        PARQO_RETURN_IF_ERROR(RunPartitioned(
            rec, m, "repartition_join", n, parallel_nodes_, [&](int i) {
              BindingTable acc = std::move(routed[0][i]);
              for (std::size_t c = 1; c < children.size(); ++c) {
                acc = Join(acc, routed[c][i]);
              }
              out.per_node[i] = std::move(acc);
            }));
        break;
      }
    }
    out.schema = out.per_node.empty() ? std::vector<VarId>{}
                                      : out.per_node[0].schema();
    for (int i = 0; i < n; ++i) {
      m.node_rows_joined[i] += out.per_node[i].NumRows();
    }
    record_card(node, out,
                node.method == JoinMethod::kLocal        ? "local"
                : node.method == JoinMethod::kBroadcast  ? "broadcast"
                                                         : "repartition");

    double output_card = static_cast<double>(out.GlobalRows());
    double op_cost = cost_model_.JoinOpCost(node.method, input_cards,
                                            output_card);
    m.total_work += op_cost;
    frame->cost = max_child_cost + op_cost;
    frame->table = std::move(out);
    return Status::Ok();
  };

  Frame root;
  Status st = eval(plan, 0, {}, &root);
  if (!st.ok()) {
    // Partial per-operator sums must never leak into reports: zero
    // everything (per-node vectors stay sized so sums still reconcile
    // at 0 == 0) and mark the run failed. Wall time is kept — it is an
    // observation of this run, not a per-operator sum.
    double wall = watch.ElapsedSeconds();
    m = ExecMetrics{};
    m.failed = true;
    m.node_rows_scanned.assign(n, 0);
    m.node_rows_received.assign(n, 0);
    m.node_rows_joined.assign(n, 0);
    m.node_busy_seconds.assign(n, 0.0);
    m.node_ops.assign(n, 0);
    m.node_failures.assign(n, 0);
    m.wall_seconds = wall;
    if (MetricsEnabled()) {
      MetricsRegistry::Global().counter("exec.failures").Add(1);
    }
    return st;
  }
  m.measured_cost = root.cost;
  m.merge_joins = merge_joins_.load(std::memory_order_relaxed);

  // Gather and deduplicate the global result.
  BindingTable result(root.table.schema);
  for (const BindingTable& t : root.table.per_node) {
    result.AppendFrom(t);
  }
  result.Deduplicate();
  m.result_rows = result.NumRows();
  m.wall_seconds = watch.ElapsedSeconds();

  if (MetricsEnabled()) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    reg.counter("exec.queries").Add(1);
    reg.counter("exec.rows_scanned").Add(m.rows_scanned);
    reg.counter("exec.rows_transferred").Add(m.rows_transferred);
    reg.counter("exec.bytes_shipped").Add(m.bytes_shipped);
    reg.counter("exec.distributed_joins").Add(m.distributed_joins);
    if (m.merge_joins > 0) {
      reg.counter("exec.merge_joins").Add(m.merge_joins);
    }
    reg.counter("exec.result_rows").Add(m.result_rows);
    reg.histogram("exec.wall_seconds").Observe(m.wall_seconds);
    reg.histogram("exec.measured_cost").Observe(m.measured_cost);
    if (m.recovery_attempts > 0) {
      reg.counter("exec.recovery_attempts").Add(m.recovery_attempts);
      reg.counter("exec.operators_reexecuted").Add(m.operators_reexecuted);
      reg.counter("exec.rows_reshipped").Add(m.rows_reshipped);
      reg.counter("exec.shipments_dropped").Add(m.shipments_dropped);
      reg.counter("exec.node_crashes")
          .Add(static_cast<std::uint64_t>(m.degraded_nodes.size()));
    }
    if (m.hedged_ops > 0) {
      reg.counter("server.health.hedged_ops").Add(m.hedged_ops);
      reg.counter("server.health.hedge_wins").Add(m.hedge_wins);
    }
    if (!m.quarantined_nodes.empty()) {
      reg.counter("server.health.nodes_quarantined")
          .Add(static_cast<std::uint64_t>(m.quarantined_nodes.size()));
    }
  }
  return result;
}

Result<BindingTable> ExecuteAndProject(Executor& executor,
                                       const PlanNode& plan,
                                       const ParsedQuery& query,
                                       const JoinGraph& jg,
                                       ExecMetrics* metrics) {
  Result<BindingTable> full = executor.Execute(plan, metrics);
  if (!full.ok()) return full;
  if (query.select_all) return full;
  std::vector<VarId> vars;
  for (const std::string& name : query.select_vars) {
    VarId v = jg.FindVar(name);
    if (v == kInvalidVarId) {
      return Status::InvalidArgument("SELECT variable ?" + name +
                                     " does not occur in the query body");
    }
    vars.push_back(v);
  }
  return full->Project(vars);
}

}  // namespace parqo
