#include "exec/executor.h"

#include <algorithm>
#include <bitset>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/fault.h"
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
// re-reads it). Null `fault` means no crash, delay or drop is injected;
// every work item still runs through the same loop.
struct Recovery {
  // parqo-lint: allow(guarded-field) installed once before workers start
  FaultPlan* fault = nullptr;
  // parqo-lint: allow(guarded-field) installed once before workers start
  NodeHealthRegistry* health = nullptr;
  // parqo-lint: allow(guarded-field) read-only after per-run setup
  RetryPolicy policy;

  /// Guards alive/host/alive_count plus the ExecMetrics fields work items
  /// write while they run (recovery_attempts, node_failures, hedged_ops,
  /// hedge_wins, degraded_nodes), which live outside this struct and so
  /// cannot carry the GUARDED_BY themselves. Never held across
  /// BeginNodeOp or the work item itself.
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
// 0-based attempt n: true ends the loop OK, false goes round again at
// once.
template <typename What, typename Precheck, typename OnRetry,
          typename Attempt>
Status RetryLoop(const RetryPolicy& policy, What&& what, const char* verb,
                 Precheck&& precheck, OnRetry&& on_retry, Attempt&& attempt) {
  Retry retry(policy);
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
  }
}

// How one completed work item ran: the node that ran it, its wall time,
// and whether it took more than one attempt. The item's own thread writes
// it; the driver adds every partition's into ExecMetrics after the
// fan-out, so a fault-free item takes Recovery::mu once, for its host.
struct ItemRun {
  int host = -1;
  double busy_seconds = 0;
  bool reexecuted = false;
};

// Runs logical partition `part`'s work item for one operator with crash
// detection: the hosting node is probed before the work runs, so a fired
// crash loses the whole item (nothing partial is observed) and the item
// is retried on whatever node hosts the partition after re-homing. On
// success `run` says how it ran. `work(part)` must be runnable at most
// once (it may move its inputs).
template <typename Work>
Status RunOnePartition(Recovery& rec, ExecMetrics& m, const char* op,
                       int part, Work& work, ItemRun& run) {
  int host = -1;
  return RetryLoop(
      rec.policy,
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
        run = {host, op_watch.ElapsedSeconds(), attempt > 0};
        return true;
      });
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
      rec.policy,
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

// An operator's names: its trace span, its work items in fault messages,
// and its ExecMetrics::op_cards entry.
struct OpNames {
  const char* span;
  const char* item;
  const char* card;
};

OpNames NamesOf(const PlanNode& node) {
  if (node.kind == PlanNode::Kind::kScan) return {"exec/scan", "scan", "scan"};
  switch (node.method) {
    case JoinMethod::kLocal:
      return {"exec/local_join", "local_join", "local"};
    case JoinMethod::kBroadcast:
      return {"exec/broadcast_join", "broadcast_join", "broadcast"};
    case JoinMethod::kRepartition:
      return {"exec/repartition_join", "repartition_join", "repartition"};
  }
  return {"exec/join", "join", "join"};
}

// 8-byte TermIds; schema width is the row's wire size.
std::uint64_t RowBytes(const std::vector<VarId>& schema) {
  return static_cast<std::uint64_t>(schema.size()) * sizeof(TermId);
}

// Deduplicates `t` unless `distinct` proves it holds no duplicate row
// (DESIGN.md section 13, "Dedup elision"). A keep-first dedup that
// removes nothing leaves the table as it was, so skipping it changes no
// row and no row order. Checked builds deduplicate a copy to prove it.
// `dedup_rows` counts the rows actually hashed.
void DedupUnlessDistinct(BindingTable& t, bool distinct,
                         std::uint64_t& dedup_rows, DedupScratch& scratch) {
  if (distinct) {
#if PARQO_DCHECK_ENABLED
    BindingTable copy = t;
    copy.Deduplicate();
    PARQO_DCHECK(copy.NumRows() == t.NumRows());
#endif
    return;
  }
  dedup_rows += t.NumRows();
  t.Deduplicate(&scratch);
}

// One logical partition's reusable buffers for one Execute (DESIGN.md
// section 13, "Scratch ownership"). Partition p's work items are the
// only writers of scratch[p], whichever node hosts them and whichever
// pool thread runs them: the nest-safe pool may run another node's item
// on a waiting thread, so nothing here may be thread-local. Inside an
// item, morsel workers write only their own morsel's slot. A crashed
// item is probed before it starts, so a re-executed item finds the
// scratch as the failed attempt left it: unused.
struct PartitionScratch {
  ScanScratch scan;
  JoinScratch join;
  DedupScratch dedup;
  /// Target node of each row of this partition's share of a
  /// repartitioned input.
  std::vector<std::uint32_t> route;
  /// Joins of this partition that ran the merge kernel.
  std::uint64_t merge_joins = 0;
  /// Index entries this partition's scans decoded.
  std::uint64_t rows_decoded = 0;
};

// An operator's output, one table per node, and the measured Eq. 3 cost
// of the subtree that produced it.
struct DistTable {
  std::vector<BindingTable> per_node;
  std::vector<VarId> schema;
  /// No row appears on two nodes. Every per-node table is duplicate-free
  /// (node stores are sets and a join of sets is a set), so a disjoint
  /// table's concatenation is already deduplicated.
  bool disjoint = false;
  double cost = 0;

  std::uint64_t GlobalRows() const {
    std::uint64_t sum = 0;
    for (const BindingTable& t : per_node) sum += t.NumRows();
    return sum;
  }
};

// What a join kind hands the operator boundary: the tables each node
// joins, in join order, and whether the output rows are disjoint across
// nodes. Input j of partition p is tables[j]->per_node[p], or
// per_node[0] when one gathered table serves every node.
struct JoinInputs {
  std::vector<DistTable*> tables;
  bool disjoint = false;
};

// Sizes `m`'s per-node vectors to the cluster and zeroes everything
// else, so per-node sums reconcile with the totals even on a failed run.
void ResetMetrics(ExecMetrics& m, int n) {
  m = ExecMetrics{};
  m.node_rows_scanned.assign(n, 0);
  m.node_rows_received.assign(n, 0);
  m.node_rows_joined.assign(n, 0);
  m.node_busy_seconds.assign(n, 0.0);
  m.node_ops.assign(n, 0);
  m.node_failures.assign(n, 0);
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

double ExecMetrics::OpCardinality::QError() const {
  if (actual == 0 || estimated <= 0) return 0.0;
  const double act = static_cast<double>(actual);
  return std::max(estimated / act, act / estimated);
}

QErrorSummary ExecMetrics::SummarizeQError() const {
  QErrorSummary s;
  for (const OpCardinality& oc : op_cards) {
    const double q = oc.QError();
    if (q == 0) continue;
    s.log_sum += std::log(q);
    s.max = std::max(s.max, q);
    ++s.ops;
  }
  return s;
}

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

// One Execute (DESIGN.md section 13, "Operator boundary"): the metrics,
// fault recovery, each partition's scratch and the sideways-passing
// annotations, with one member function per operator of Section II-D.
// Every plan node goes through RunOperator. The recursion runs on the
// driver thread; pool workers run only the per-partition items that
// RunOperator fans out.
class Executor::Run {
 public:
  Run(const Executor& ex, const PlanNode& plan, ExecMetrics& m)
      : ex_(ex),
        m_(m),
        n_(ex.cluster_.num_nodes()),
        scratch_(n_),
        statuses_(n_),
        runs_(n_) {
    rec_.fault = ActiveFaultPlan();
    rec_.health = ex.health_;
    rec_.policy = ex.retry_;
    if (rec_.fault != nullptr) PARQO_CHECK(rec_.fault->num_nodes() >= n_);
    // Sideways information passing needs each plan node's variables; the
    // recording pass runs unfiltered, so it skips the annotation.
    if (!ex.record_op_cards_) Annotate(plan, ex.jg_, info_);
    MutexLock lock(rec_.mu);
    rec_.alive.assign(n_, 1);
    rec_.host.resize(n_);
    std::iota(rec_.host.begin(), rec_.host.end(), 0);
    rec_.alive_count = n_;
    if (rec_.health != nullptr) {
      PARQO_CHECK(rec_.health->num_nodes() >= n_);
      // Pre-emptive quarantine: partitions hosted by open-breaker nodes
      // are re-homed to survivors BEFORE any work dispatches, so the
      // session never probes (and never crash-detects) a known-sick node.
      // The last survivor is never quarantined — a query beats no query.
      for (int i = 0; i < n_; ++i) {
        if (rec_.alive_count <= 1) break;
        if (!rec_.health->AllowRoute(i)) {
          rec_.alive[i] = 0;
          --rec_.alive_count;
          m_.quarantined_nodes.push_back(i);
        }
      }
      for (int q : m_.quarantined_nodes) RehomeLocked(rec_, q);
    }
  }

  // The one operator boundary: evaluates the subtree at pre-order index
  // `at` into `out`, its scans filtered by `filters`, and stops at the
  // first unrecoverable fault. A join's children are evaluated first and
  // its kind picks each node's inputs; the boundary owns the span, the
  // per-partition fan-out, the per-node row counts, the recorded
  // cardinality and the Eq. 3 cost.
  Status RunOperator(const PlanNode& node, std::size_t at,
                     std::span<const KeyFilter* const> filters,
                     DistTable& out) {
    const OpNames names = NamesOf(node);
    // The span covers the whole subtree; nested operator spans on the
    // same thread render as a flame graph in the trace viewer.
    TraceSpan span(names.span, "exec");
    const bool scan = node.kind == PlanNode::Kind::kScan;
    ResolvedPattern rp;
    std::vector<DistTable> children(node.children.size());
    JoinInputs in;
    double max_child_cost = 0;
    std::vector<double> input_cards;
    if (scan) {
      rp = BindPattern(ex_.jg_.pattern(node.tp), ex_.jg_,
                       ex_.cluster_.graph().dict());
      // Partitioners replicate triples, so only a single node's scan is
      // known to be disjoint.
      in.disjoint = n_ == 1;
    } else {
      PARQO_RETURN_IF_ERROR(EvalChildren(node, at, filters, children));
      for (const DistTable& f : children) {
        max_child_cost = std::max(max_child_cost, f.cost);
        input_cards.push_back(static_cast<double>(f.GlobalRows()));
      }
      in.tables.reserve(children.size());
      switch (node.method) {
        case JoinMethod::kLocal:
          LocalJoin(children, in);
          break;
        case JoinMethod::kBroadcast:
          ++m_.distributed_joins;
          PARQO_RETURN_IF_ERROR(BroadcastJoin(children, in));
          break;
        case JoinMethod::kRepartition:
          ++m_.distributed_joins;
          PARQO_RETURN_IF_ERROR(RepartitionJoin(node.join_var, children, in));
          break;
      }
    }

    // Every item runs through RunOnePartition: probed when a FaultScope
    // is active, timed into node_busy_seconds and counted in node_ops
    // always.
    out.per_node.resize(n_);
    auto work = [&](int i) {
      out.per_node[i] = scan ? Scan(rp, filters, i) : JoinCascade(in, i);
    };
    ForEachNode(n_, ex_.parallel_nodes_, [&](int i) {
      statuses_[i] = RunOnePartition(rec_, m_, names.item, i, work, runs_[i]);
    });
    for (Status& st : statuses_) {
      if (!st.ok()) return std::move(st);
    }
    for (const ItemRun& r : runs_) {
      m_.node_busy_seconds[r.host] += r.busy_seconds;
      ++m_.node_ops[r.host];
      if (r.reexecuted) ++m_.operators_reexecuted;
    }
    out.schema = scan ? rp.schema : out.per_node[0].schema();
    out.disjoint = in.disjoint;
    std::vector<std::uint64_t>& node_rows =
        scan ? m_.node_rows_scanned : m_.node_rows_joined;
    for (int i = 0; i < n_; ++i) node_rows[i] += out.per_node[i].NumRows();
    if (scan) m_.rows_scanned += out.GlobalRows();

    // Opt-in estimated-vs-measured cardinality per operator.
    if (ex_.record_op_cards_) {
      ExecMetrics::OpCardinality oc;
      oc.op = names.card;
      for (int tp : node.tps) oc.tps.push_back(tp);
      oc.estimated = node.cardinality;
      oc.actual = Gather(out).NumRows();
      m_.op_cards.push_back(std::move(oc));
    }
    if (!scan) {
      const double op_cost = ex_.cost_model_.JoinOpCost(
          node.method, input_cards, static_cast<double>(out.GlobalRows()));
      m_.total_work += op_cost;
      out.cost = max_child_cost + op_cost;
    }
    return Status::Ok();
  }

  // The distinct rows of a distributed table, in node order.
  BindingTable Gather(const DistTable& table) {
    BindingTable g(table.schema);
    g.Reserve(table.GlobalRows());
    for (const BindingTable& t : table.per_node) g.AppendFrom(t);
    DedupUnlessDistinct(g, table.disjoint, m_.dedup_rows, driver_dedup_);
    return g;
  }

  // Merge-kernel picks and index entries decoded this run, summed over
  // partitions.
  void SumPartitionCounts() {
    for (const PartitionScratch& s : scratch_) {
      m_.merge_joins += s.merge_joins;
      m_.rows_decoded += s.rows_decoded;
    }
  }

 private:
  // Evaluates a join's children, smallest estimate first, each later
  // child filtered by the keys of a smaller evaluated sibling. The join
  // and Eq. 3 still see the children in plan order. The recording pass
  // keeps plan order and runs unfiltered, so op_cards report the
  // unreduced cardinalities the estimator predicts.
  Status EvalChildren(const PlanNode& node, std::size_t at,
                      std::span<const KeyFilter* const> filters,
                      std::vector<DistTable>& children) {
    const std::size_t k = node.children.size();
    std::vector<std::size_t> order(k);
    std::iota(order.begin(), order.end(), 0);
    std::vector<std::size_t> pos(k);
    if (!ex_.record_op_cards_) {
      pos[0] = at + 1;
      for (std::size_t c = 1; c < k; ++c) {
        pos[c] = pos[c - 1] + info_[pos[c - 1]].size;
      }
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return node.children[a]->cardinality <
                                node.children[b]->cardinality;
                       });
    }
    auto child_rows = [&](std::size_t c) { return children[c].GlobalRows(); };
    std::vector<const KeyFilter*> child_filters;
    for (std::size_t idx = 0; idx < k; ++idx) {
      const std::size_t c = order[idx];
      child_filters.clear();
      KeyFilter own;
      if (!ex_.record_op_cards_) {
        for (const KeyFilter* f : filters) {
          if (info_[pos[c]].vars.test(f->var)) child_filters.push_back(f);
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
          own = BuildFilter(children[sib].per_node,
                            children[sib].schema,
                            info_[pos[c]].vars & info_[pos[sib]].vars,
                            node.method == JoinMethod::kLocal &&
                                info_[pos[c]].node_local);
          if (own.var != kInvalidVarId) child_filters.push_back(&own);
        }
      }
      PARQO_RETURN_IF_ERROR(
          RunOperator(*node.children[c], pos[c], child_filters, children[c]));
    }
    return Status::Ok();
  }

  // Partition `part`'s share of a scan. Several filters can reach one
  // leaf; the fewest keys prune the most.
  BindingTable Scan(const ResolvedPattern& rp,
                    std::span<const KeyFilter* const> filters, int part) {
    ScanFilter sf;
    for (const KeyFilter* f : filters) {
      const KeySet& keys = f->For(part);
      if (sf.keys == nullptr || keys.size() < sf.keys->size()) {
        sf = {f->var, &keys};
      }
    }
    PartitionScratch& s = scratch_[part];
    return ex_.cluster_.node(part).Scan(rp, kDefaultMorselRows,
                                        ex_.parallel_nodes_, sf, &s.scan,
                                        &s.rows_decoded);
  }

  // Each node joins its own rows of every child, in plan order.
  void LocalJoin(std::vector<DistTable>& children, JoinInputs& in) {
    for (DistTable& f : children) {
      in.tables.push_back(&f);
      // A row repeated on two nodes would repeat its projection onto
      // every child.
      in.disjoint = in.disjoint || f.disjoint;
    }
  }

  // Keeps the globally largest input partitioned and ships one copy of
  // each other input, gathered, to every node. Each node joins the kept
  // input first, then the gathered ones in child order.
  Status BroadcastJoin(std::vector<DistTable>& children, JoinInputs& in) {
    std::size_t largest = 0;
    for (std::size_t c = 1; c < children.size(); ++c) {
      if (children[c].GlobalRows() > children[largest].GlobalRows()) {
        largest = c;
      }
    }
    in.tables.push_back(&children[largest]);
    for (std::size_t c = 0; c < children.size(); ++c) {
      if (c == largest) continue;
      DistTable& t = children[c];
      BindingTable g = Gather(t);
      // Each node's copy is one shipment the flaky network may eat.
      const std::uint64_t rows = g.NumRows() * static_cast<std::uint64_t>(n_);
      const std::uint64_t bytes = rows * RowBytes(g.schema());
      for (int i = 0; i < n_; ++i) {
        PARQO_RETURN_IF_ERROR(
            DeliverBatch(rec_, m_, "broadcast", g.NumRows(), i));
      }
      m_.rows_transferred += rows;
      m_.bytes_shipped += bytes;
      m_.edges.push_back({"broadcast", rows, bytes});
      t.per_node.clear();
      t.per_node.push_back(std::move(g));
      in.tables.push_back(&t);
    }
    // Every node joins the same gathered rows, so output rows are
    // disjoint when the partitioned input's are.
    in.disjoint = children[largest].disjoint;
    return Status::Ok();
  }

  // Re-hashes every input on the cmd's join variable `var`. Each node
  // joins its routed share of every input, in plan order.
  Status RepartitionJoin(VarId var, std::vector<DistTable>& children,
                         JoinInputs& in) {
    std::vector<std::size_t> counts(n_);
    std::vector<TermId*> cursor(n_);
    for (DistTable& t : children) {
      const int col = t.per_node[0].ColumnOf(var);
      PARQO_CHECK(col >= 0);
      // One counting-sort scatter: the target of every row and the rows
      // per target, then each target's columns filled at their exact
      // size. A target receives source 0's rows in row order, then
      // source 1's, and so on.
      std::fill(counts.begin(), counts.end(), 0);
      for (int src = 0; src < n_; ++src) {
        const std::vector<TermId>& keys = t.per_node[src].Column(col);
        std::vector<std::uint32_t>& route = scratch_[src].route;
        route.resize(keys.size());
        for (std::size_t r = 0; r < keys.size(); ++r) {
          const int target = HashToNode(keys[r], n_);
          route[r] = static_cast<std::uint32_t>(target);
          ++counts[target];
        }
      }
      std::vector<BindingTable> routed(n_, BindingTable(t.schema));
      for (int col_i = 0; col_i < static_cast<int>(t.schema.size());
           ++col_i) {
        for (int target = 0; target < n_; ++target) {
          std::vector<TermId>& dst = routed[target].MutableColumn(col_i);
          dst.resize(counts[target]);
          cursor[target] = dst.data();
        }
        for (int src = 0; src < n_; ++src) {
          const std::vector<TermId>& from = t.per_node[src].Column(col_i);
          const std::vector<std::uint32_t>& route = scratch_[src].route;
          for (std::size_t r = 0; r < from.size(); ++r) {
            *cursor[route[r]]++ = from[r];
          }
        }
      }
      for (int src = 0; src < n_; ++src) ReleaseIfLarge(scratch_[src].route);
      // Deliver (and count) at the receiving end so per-node sums
      // reproduce the totals exactly: every routed row has one target.
      // One target's batch is one shipment.
      std::uint64_t edge_rows = 0;
      for (int target = 0; target < n_; ++target) {
        const std::uint64_t batch = routed[target].NumRows();
        PARQO_RETURN_IF_ERROR(
            DeliverBatch(rec_, m_, "repartition", batch, target));
        edge_rows += batch;
      }
      const std::uint64_t edge_bytes = edge_rows * RowBytes(t.schema);
      m_.rows_transferred += edge_rows;
      m_.bytes_shipped += edge_bytes;
      m_.edges.push_back({"repartition", edge_rows, edge_bytes});
      // Replicated source rows can meet at the target; dedup there
      // unless the source had none.
      for (int target = 0; target < n_; ++target) {
        DedupUnlessDistinct(routed[target], t.disjoint, m_.dedup_rows,
                            scratch_[target].dedup);
      }
      t.per_node = std::move(routed);
      in.tables.push_back(&t);
    }
    // Every output row lives on the node its join-variable binding
    // hashes to.
    in.disjoint = true;
    return Status::Ok();
  }

  // The k-way join of partition `part`: the first two inputs read in
  // place, each later one against the previous output. A per-node input
  // belongs to this item alone, so it is freed once joined; a gathered
  // input every node reads stays.
  BindingTable JoinCascade(const JoinInputs& in, int part) {
    PartitionScratch& s = scratch_[part];
    BatchJoinOptions opts;
    opts.scratch = &s.join;
    // Morsel parallelism composes with the per-node ForEachNode fan-out:
    // both run on the same nest-safe pool. Morsels only spread a probe
    // over threads, so a serial join probes as one morsel into one match
    // chunk (the output is the same either way).
    opts.parallel = ex_.parallel_nodes_;
    if (!ex_.parallel_nodes_) opts.morsel_rows = 0;
    // Merge kernel when both inputs arrive sorted on the single shared
    // variable (index scans establish the order; order-preserving
    // operators propagate it). Bit-identical to the hash kernel.
    auto join = [&](const BindingTable& left, const BindingTable& right) {
      if (MergeJoinKey(left, right) != kInvalidVarId) {
        ++s.merge_joins;
        return BatchMergeJoin(left, right, opts);
      }
      return BatchHashJoin(left, right, opts);
    };
    auto input = [&](std::size_t j) -> const BindingTable& {
      const std::vector<BindingTable>& t = in.tables[j]->per_node;
      return t.size() == 1 ? t[0] : t[part];
    };
    BindingTable acc = join(input(0), input(1));
    for (std::size_t j = 2; j < in.tables.size(); ++j) {
      acc = join(acc, input(j));
    }
    for (DistTable* t : in.tables) {
      if (t->per_node.size() == static_cast<std::size_t>(n_)) {
        t->per_node[part] = {};
      }
    }
    return acc;
  }

  const Executor& ex_;
  ExecMetrics& m_;
  const int n_;
  Recovery rec_;
  std::vector<PartitionScratch> scratch_;
  DedupScratch driver_dedup_;  // for the gathers between operators
  std::vector<PlanInfo> info_;
  // One per partition, reused per operator.
  std::vector<Status> statuses_;
  std::vector<ItemRun> runs_;
};

Result<BindingTable> Executor::Execute(const PlanNode& plan,
                                       ExecMetrics* metrics) {
  Stopwatch watch;
  ExecMetrics local_metrics;
  ExecMetrics& m = metrics != nullptr ? *metrics : local_metrics;
  const int n = cluster_.num_nodes();
  ResetMetrics(m, n);
  Run run(*this, plan, m);
  DistTable root;
  Status st = run.RunOperator(plan, 0, {}, root);
  BindingTable result;
  if (st.ok()) {
    m.measured_cost = root.cost;
    run.SumPartitionCounts();
    result = run.Gather(root);
    m.result_rows = result.NumRows();
    m.wall_seconds = watch.ElapsedSeconds();
  } else {
    // Partial per-operator sums must never leak into reports. Wall time
    // is kept: it is an observation of this run, not a per-operator sum.
    const double wall = watch.ElapsedSeconds();
    ResetMetrics(m, n);
    m.failed = true;
    m.wall_seconds = wall;
  }
  if (!st.ok()) return st;
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
