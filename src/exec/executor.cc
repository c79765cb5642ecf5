#include "exec/executor.h"

#include <algorithm>
#include <bitset>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/health.h"
#include "exec/join_kernel.h"
#include "partition/partitioner.h"

namespace parqo {
namespace {

// Sideways information passing (DESIGN.md section 13): a sibling lends
// a later child a key filter on a variable only when the sibling has at
// most 1/kFilterRatio of the rows of the largest scan in the child that
// binds the variable. Scan estimates are exact (Eq. 11 on one pattern
// reads DatasetIndex's counts), where the child's join estimate can be
// off by orders of magnitude. A filter from a sibling of comparable size
// tends to remove nothing and still costs a probe per scanned row.
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
  double min_scan = 0;      // the subtree's smallest scan estimate
};

// Annotates the subtree of `node` into `info`, and into
// largest_scan[i * jg.num_vars() + v] the largest scan estimate in plan
// node i's subtree among the scans that bind v (0 when none does).
void Annotate(const PlanNode& node, const JoinGraph& jg,
              std::vector<PlanInfo>& info, std::vector<double>& largest_scan) {
  const std::size_t nv = static_cast<std::size_t>(jg.num_vars());
  const std::size_t at = info.size();
  info.emplace_back();
  largest_scan.resize(info.size() * nv, 0.0);
  if (node.kind == PlanNode::Kind::kScan) {
    info[at].min_scan = node.cardinality;
    for (VarId v : jg.VarsOf(node.tp)) {
      info[at].vars.set(v);
      largest_scan[at * nv + v] = node.cardinality;
    }
    return;
  }
  bool node_local = node.method == JoinMethod::kLocal;
  VarSet vars;
  double min_scan = std::numeric_limits<double>::infinity();
  for (const PlanNodePtr& c : node.children) {
    const std::size_t child = info.size();
    Annotate(*c, jg, info, largest_scan);
    vars |= info[child].vars;
    node_local = node_local && info[child].node_local;
    min_scan = std::min(min_scan, info[child].min_scan);
    for (std::size_t v = 0; v < nv; ++v) {
      largest_scan[at * nv + v] =
          std::max(largest_scan[at * nv + v], largest_scan[child * nv + v]);
    }
  }
  info[at].vars = vars;
  info[at].node_local = node_local;
  info[at].size = info.size() - at;
  info[at].min_scan = min_scan;
}

// A key filter pushed from a join into a child subtree: rows whose `var`
// binding is not a key can never reach the join's output. One set for
// every node, or one per node when rows cannot move between nodes. The
// sets live in the ExecScratch (FilterScratch::slots).
struct KeyFilter {
  VarId var = kInvalidVarId;
  std::span<const KeySet> sets;
  std::size_t keys = 0;  // summed over the sets
  const KeySet& For(int node) const {
    return sets.size() == 1 ? sets[0] : sets[node];
  }
};

// At most this many threads, the caller included, run one fan-out's
// node items; a larger cluster's nodes wait for one of them.
constexpr int kMaxNodeWorkers = 32;

// Runs fn(0..n-1); when parallel, the simulated cluster's nodes work
// concurrently on the shared pool. This is the executor's only parallel
// fan-out: a node's item scans and joins in one pass on one thread. fn
// must only touch node-local state. A serial fan-out calls fn
// directly; a parallel one hands the pool a one-reference wrapper, which
// fits std::function's inline buffer.
template <typename Fn>
void ForEachNode(int n, bool parallel, Fn&& fn) {
  if (!parallel || n <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool::Global().ParallelFor(
      n, [&fn](int i) { fn(i); }, kMaxNodeWorkers);
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

// One logical partition's reusable buffers (DESIGN.md section 13,
// "Scratch ownership"). Partition p's work items are the only writers of
// parts[p], whichever node hosts them and whichever pool thread runs
// them: the nest-safe pool may run another node's item on a waiting
// thread, so nothing here may be thread-local. A crashed item is probed
// before it starts, so a re-executed item finds the scratch as the
// failed attempt left it: unused.
struct PartitionScratch {
  JoinScratch join;
  /// The item's output columns, which the driver appends to the
  /// operator's table, and the two a k-way join alternates between for
  /// its intermediate steps.
  std::vector<std::vector<TermId>> out;
  std::vector<std::vector<TermId>> steps[2];
  /// What the item wrote into `out`.
  RowsWritten written;
  /// Joins of this partition that ran the merge kernel this run.
  std::uint64_t merge_joins = 0;
  /// Index entries this partition's scans decoded this run.
  std::uint64_t rows_decoded = 0;

  /// Heap bytes the buffers hold.
  std::size_t Bytes() const {
    std::size_t b = join.Bytes();
    for (const std::vector<std::vector<TermId>>* cols :
         {&out, &steps[0], &steps[1]}) {
      b += CapacityBytes(*cols);
      for (const std::vector<TermId>& c : *cols) b += CapacityBytes(c);
    }
    return b;
  }
};

// At least `n` columns, keeping every column's capacity.
std::vector<TermId>* Columns(std::vector<std::vector<TermId>>& cols,
                             std::size_t n) {
  if (cols.size() < n) cols.resize(n);
  return cols.data();
}

void ReleaseColumnsIfLarge(std::vector<std::vector<TermId>>& cols) {
  for (std::vector<TermId>& c : cols) ReleaseIfLarge(c);
}

// An operator's output and the measured Eq. 3 cost of the subtree that
// produced it. `rows` holds every node's rows, node 0's first.
struct DistTable {
  BindingTable rows;
  /// Range r is rows [offsets[r], offsets[r + 1]), known sorted on
  /// sorted_by[r]. Node p reads range p, or range 0 when there is one
  /// range (a gathered table every node reads whole).
  std::vector<std::size_t> offsets;
  std::vector<VarId> sorted_by;
  /// No row appears on two nodes. Every range is duplicate-free (node
  /// stores are sets and a join of sets is a set), so a disjoint table
  /// is already deduplicated.
  bool disjoint = false;
  double cost = 0;

  std::uint64_t GlobalRows() const { return rows.NumRows(); }

  RowRange Range(int node) const {
    const std::size_t r = sorted_by.size() == 1 ? 0 : node;
    return rows.Rows(offsets[r], offsets[r + 1], sorted_by[r]);
  }

  // Makes the table one range every node reads whole, in no known order
  // (a gather concatenates the nodes' rows).
  void AsOneRange() {
    offsets.assign({0, rows.NumRows()});
    sorted_by.assign(1, kInvalidVarId);
  }
};

// Deduplicates each range of `t` in place, keep-first, and closes the
// gaps between them, unless `t.disjoint` proves no range holds a
// duplicate row (DESIGN.md section 13, "Dedup elision"). A keep-first
// dedup that removes nothing leaves the table as it was, so skipping it
// changes no row and no row order; checked builds run it to prove that.
// `dedup_rows` counts the rows actually hashed.
void DedupRanges(DistTable& t, std::uint64_t& dedup_rows,
                 DedupScratch& scratch) {
  std::vector<std::size_t>& at = t.offsets;
  const std::size_t ranges = at.size() - 1;
  if (t.disjoint) {
#if PARQO_DCHECK_ENABLED
    for (std::size_t r = 0; r < ranges; ++r) {
      PARQO_DCHECK(t.rows.DeduplicateRows(at[r], at[r + 1], at[r],
                                          &scratch) == at[r + 1] - at[r]);
    }
#endif
    return;
  }
  std::size_t to = 0;
  for (std::size_t r = 0; r < ranges; ++r) {
    const std::size_t begin = at[r];
    const std::size_t end = at[r + 1];
    dedup_rows += end - begin;
    at[r] = to;
    to += t.rows.DeduplicateRows(begin, end, to, &scratch);
  }
  at[ranges] = to;
  t.rows.Truncate(to);
}

// The key filters' reusable buffers. `candidate` and `kept` hold, one
// vector per range, the distinct keys of the variable BuildFilter is
// looking at and of the fewest-key variable so far. slots[i] holds the
// key sets of the filters the join at pre-order index i builds, so a
// warm filter is rebuilt in the sets the same join used on the last run.
struct FilterScratch {
  std::vector<std::vector<TermId>> candidate;
  std::vector<std::vector<TermId>> kept;
  std::vector<std::vector<KeySet>> slots;
};

// Frees a join's key sets once its children ran when together they hold
// more than kScratchKeepBytes, so the key sets a scratch keeps between
// runs are bounded by the plan's size, not by the heaviest request.
void ReleaseKeySetsIfLarge(std::vector<KeySet>& sets) {
  std::size_t bytes = 0;
  for (const KeySet& k : sets) bytes += k.Bytes();
  if (bytes > kScratchKeepBytes) std::vector<KeySet>().swap(sets);
}

// Sorted distinct values of column `col` over rows [begin, end) of `t`,
// into `keys`.
void DistinctKeys(const BindingTable& t, int col, std::size_t begin,
                  std::size_t end, std::vector<TermId>& keys) {
  const std::vector<TermId>& c = t.Column(col);
  keys.assign(c.begin() + static_cast<std::ptrdiff_t>(begin),
              c.begin() + static_cast<std::ptrdiff_t>(end));
  // A scan sorted on the column hands over sorted keys.
  if (!std::is_sorted(keys.begin(), keys.end())) {
    std::sort(keys.begin(), keys.end());
  }
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

// The filter a join pushes into a child: on the variable of `shared`
// with the fewest distinct keys in the sibling `t`, one key set per node
// or one for all, rebuilt in `sets`. No variable in `shared` means no
// filter (var == kInvalidVarId). The candidates' keys are built in
// `scratch`; only the kept variable's are copied into key sets.
KeyFilter BuildFilter(const DistTable& t, const VarSet& shared,
                      bool per_node, FilterScratch& scratch,
                      std::vector<KeySet>& sets) {
  KeyFilter f;
  const std::size_t ranges = per_node ? t.offsets.size() - 1 : 1;
  if (scratch.candidate.size() < ranges) {
    scratch.candidate.resize(ranges);
    scratch.kept.resize(ranges);
  }
  std::size_t best_size = 0;
  const std::vector<VarId>& schema = t.rows.schema();
  for (std::size_t col = 0; col < schema.size(); ++col) {
    const VarId v = schema[col];
    if (!shared.test(v)) continue;
    std::size_t size = 0;
    for (std::size_t r = 0; r < ranges; ++r) {
      DistinctKeys(t.rows, static_cast<int>(col), t.offsets[r],
                   per_node ? t.offsets[r + 1] : t.rows.NumRows(),
                   scratch.candidate[r]);
      size += scratch.candidate[r].size();
    }
    if (f.var == kInvalidVarId || size < best_size) {
      f.var = v;
      best_size = size;
      for (std::size_t r = 0; r < ranges; ++r) {
        scratch.candidate[r].swap(scratch.kept[r]);
      }
    }
  }
  if (f.var == kInvalidVarId) return f;
  if (sets.size() < ranges) sets.resize(ranges);
  for (std::size_t r = 0; r < ranges; ++r) sets[r].Assign(scratch.kept[r]);
  f.sets = std::span<const KeySet>(sets.data(), ranges);
  f.keys = best_size;
  ReleaseColumnsIfLarge(scratch.candidate);
  ReleaseColumnsIfLarge(scratch.kept);
  return f;
}

// What a join kind hands the operator boundary: the tables each node
// joins, in join order, the output schema of each step of that k-way
// join (schemas[j - 1] after joining inputs 0..j; the last is the
// operator's), and whether the output rows are disjoint across nodes.
// Input j of partition p is tables[j]->Range(p).
struct JoinInputs {
  std::vector<DistTable*> tables;
  std::vector<std::vector<VarId>> schemas;
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

// Everything an ExecScratch keeps between Executes.
struct ExecScratch::Buffers {
  std::vector<PartitionScratch> parts;
  /// The driver's: broadcast gathers, routed targets and the root.
  DedupScratch dedup;
  /// Target node of each row of the input being repartitioned, and each
  /// target's write position while it is scattered.
  std::vector<std::uint32_t> route;
  std::vector<TermId*> cursor;
  /// The key filters' keys and key sets.
  FilterScratch filter;
  /// Sideways information passing's plan annotations (see Annotate) and
  /// the sizes a join orders its children by.
  std::vector<PlanInfo> info;
  std::vector<double> largest_scan;
  std::vector<double> child_size;
  /// One per partition, reused by every operator's fan-out.
  std::vector<Status> statuses;
  std::vector<ItemRun> runs;
};

ExecScratch::ExecScratch() = default;
ExecScratch::~ExecScratch() = default;
ExecScratch::ExecScratch(ExecScratch&&) noexcept = default;
ExecScratch& ExecScratch::operator=(ExecScratch&&) noexcept = default;

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
// fault recovery, the scratch and the sideways-passing annotations, with
// one member function per operator of Section II-D. Every plan node goes
// through RunOperator. The recursion runs on the driver thread; pool
// workers run only the per-partition items that RunOperator fans out.
class Executor::Run {
 public:
  Run(const Executor& ex, const PlanNode& plan, ExecMetrics& m,
      ExecScratch::Buffers& buf)
      : ex_(ex), m_(m), n_(ex.cluster_.num_nodes()), buf_(buf) {
    buf_.parts.resize(n_);
    for (PartitionScratch& s : buf_.parts) {
      s.merge_joins = 0;
      s.rows_decoded = 0;
    }
    buf_.statuses.resize(n_);
    buf_.runs.resize(n_);
    rec_.fault = ActiveFaultPlan();
    rec_.health = ex.health_;
    rec_.policy = ex.retry_;
    if (rec_.fault != nullptr) PARQO_CHECK(rec_.fault->num_nodes() >= n_);
    // Sideways information passing needs each plan node's variables and
    // scan estimates; the recording pass runs unfiltered, so it skips the
    // annotation.
    if (!ex.record_op_cards_) {
      buf_.info.clear();
      buf_.largest_scan.clear();
      Annotate(plan, ex.jg_, buf_.info, buf_.largest_scan);
      // Grown before any filter points into a slot.
      if (buf_.filter.slots.size() < buf_.info.size()) {
        buf_.filter.slots.resize(buf_.info.size());
      }
    }
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
  // per-partition fan-out, the operator's table, the per-node row
  // counts, the recorded cardinality and the Eq. 3 cost.
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
      PARQO_DCHECK(in.tables.size() >= 2);
      in.schemas.reserve(in.tables.size() - 1);
      for (std::size_t j = 1; j < in.tables.size(); ++j) {
        std::vector<VarId> merged = MergeSchemas(
            j == 1 ? in.tables[0]->rows.schema() : in.schemas.back(),
            in.tables[j]->rows.schema());
        in.schemas.push_back(std::move(merged));
      }
    }

    // Every item runs through RunOnePartition: probed when a FaultScope
    // is active, timed into node_busy_seconds and counted in node_ops
    // always. It writes its rows into its partition's output columns.
    auto work = [&](int i) {
      buf_.parts[i].written = scan ? Scan(rp, filters, i) : JoinCascade(in, i);
    };
    ForEachNode(n_, ex_.parallel_nodes_, [&](int i) {
      buf_.statuses[i] =
          RunOnePartition(rec_, m_, names.item, i, work, buf_.runs[i]);
    });
    for (Status& st : buf_.statuses) {
      if (!st.ok()) return std::move(st);
    }
    for (const ItemRun& r : buf_.runs) {
      m_.node_busy_seconds[r.host] += r.busy_seconds;
      ++m_.node_ops[r.host];
      if (r.reexecuted) ++m_.operators_reexecuted;
    }
    // The inputs are spent; free them before the output is assembled.
    children.clear();
    Assemble(scan ? rp.schema : in.schemas.back(), out);
    out.disjoint = in.disjoint;
    std::vector<std::uint64_t>& node_rows =
        scan ? m_.node_rows_scanned : m_.node_rows_joined;
    for (int i = 0; i < n_; ++i) {
      node_rows[i] += out.offsets[i + 1] - out.offsets[i];
    }
    if (scan) m_.rows_scanned += out.GlobalRows();

    // Opt-in estimated-vs-measured cardinality per operator.
    if (ex_.record_op_cards_) {
      ExecMetrics::OpCardinality oc;
      oc.op = names.card;
      for (int tp : node.tps) oc.tps.push_back(tp);
      oc.estimated = node.cardinality;
      oc.node_offsets.assign(out.offsets.begin(), out.offsets.end());
      DistTable distinct = out;
      distinct.AsOneRange();
      DedupRanges(distinct, m_.dedup_rows, buf_.dedup);
      oc.actual = distinct.GlobalRows();
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

  // The distinct rows of the root's table, in node order, deduplicated
  // in place: a disjoint root is the result as it stands.
  BindingTable GatherRoot(DistTable& root) {
    root.AsOneRange();
    DedupRanges(root, m_.dedup_rows, buf_.dedup);
    return std::move(root.rows);
  }

  // Merge-kernel picks and index entries decoded this run, summed over
  // partitions.
  void SumPartitionCounts() {
    for (const PartitionScratch& s : buf_.parts) {
      m_.merge_joins += s.merge_joins;
      m_.rows_decoded += s.rows_decoded;
    }
  }

  // Each buffer is at most kScratchKeepBytes after its use; a partition
  // whose buffers hold more than that together drops them all when the
  // run ends, so the scratch kept between runs is bounded by the
  // cluster's size, not by the heaviest request.
  void TrimPartitions() {
    for (PartitionScratch& s : buf_.parts) {
      if (s.Bytes() > kScratchKeepBytes) s = PartitionScratch{};
    }
  }

 private:
  // Evaluates a join's children, smallest first, each later child
  // filtered by the keys of a smaller evaluated sibling. A child's size
  // is the smallest of its join estimate, the key count of every
  // inherited filter that reaches it and its smallest scan estimate: the
  // scan estimates are exact and the filters' keys are counted, where a
  // join estimate compounds independence errors. Ties keep plan order.
  // The join and Eq. 3 still see the children in plan order. The
  // recording pass keeps plan order and runs unfiltered, so op_cards
  // report the unreduced cardinalities the estimator predicts.
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
        pos[c] = pos[c - 1] + buf_.info[pos[c - 1]].size;
      }
      std::vector<double>& size = buf_.child_size;
      size.resize(k);
      for (std::size_t c = 0; c < k; ++c) {
        const PlanInfo& ci = buf_.info[pos[c]];
        size[c] = std::min(node.children[c]->cardinality, ci.min_scan);
        for (const KeyFilter* f : filters) {
          if (ci.vars.test(f->var)) {
            size[c] = std::min(size[c], static_cast<double>(f->keys));
          }
        }
      }
      std::stable_sort(
          order.begin(), order.end(),
          [&](std::size_t a, std::size_t b) { return size[a] < size[b]; });
    }
    const std::size_t nv = static_cast<std::size_t>(ex_.jg_.num_vars());
    auto child_rows = [&](std::size_t c) { return children[c].GlobalRows(); };
    std::vector<const KeyFilter*> child_filters;
    for (std::size_t idx = 0; idx < k; ++idx) {
      const std::size_t c = order[idx];
      child_filters.clear();
      KeyFilter own;
      if (!ex_.record_op_cards_) {
        const PlanInfo& ci = buf_.info[pos[c]];
        for (const KeyFilter* f : filters) {
          if (ci.vars.test(f->var)) child_filters.push_back(f);
        }
        // The smallest evaluated sibling lends its keys on each shared
        // variable that reaches a scan of at least kFilterRatio times its
        // rows.
        VarSet reach;
        std::size_t sib = order[0];
        if (idx > 0) {
          for (std::size_t e = 1; e < idx; ++e) {
            if (child_rows(order[e]) < child_rows(sib)) sib = order[e];
          }
          const double lent =
              static_cast<double>(child_rows(sib)) * kFilterRatio;
          const VarSet shared = ci.vars & buf_.info[pos[sib]].vars;
          for (std::size_t v = 0; v < nv; ++v) {
            if (shared.test(v) && lent <= buf_.largest_scan[pos[c] * nv + v]) {
              reach.set(v);
            }
          }
        }
        if (reach.any()) {
          // Per-node key sets are exact for a local join whose child
          // keeps every row on its node; anything else needs one global
          // set.
          own = BuildFilter(
              children[sib], reach,
              node.method == JoinMethod::kLocal && ci.node_local,
              buf_.filter, buf_.filter.slots[at]);
          if (own.var != kInvalidVarId) child_filters.push_back(&own);
        }
      }
      PARQO_RETURN_IF_ERROR(
          RunOperator(*node.children[c], pos[c], child_filters, children[c]));
    }
    if (!ex_.record_op_cards_) ReleaseKeySetsIfLarge(buf_.filter.slots[at]);
    return Status::Ok();
  }

  // The operator's table: every partition's output columns appended in
  // node order, each node's rows one range. The columns are sized once;
  // a partition's columns a heavy operator grew are released.
  void Assemble(const std::vector<VarId>& schema, DistTable& out) {
    out.rows = BindingTable(schema);
    out.offsets.resize(n_ + 1);
    out.sorted_by.resize(n_);
    out.offsets[0] = 0;
    for (int p = 0; p < n_; ++p) {
      const RowsWritten& w = buf_.parts[p].written;
      out.offsets[p + 1] = out.offsets[p] + w.rows;
      out.sorted_by[p] = w.sorted_by;
    }
    for (int c = 0; c < static_cast<int>(schema.size()); ++c) {
      std::vector<TermId>& dst = out.rows.MutableColumn(c);
      dst.reserve(out.offsets[n_]);
      for (PartitionScratch& s : buf_.parts) {
        std::vector<TermId>& src = s.out[c];
        dst.insert(dst.end(), src.begin(), src.end());
        ReleaseIfLarge(src);
      }
    }
  }

  // Partition `part`'s share of a scan. Several filters can reach one
  // leaf; the fewest keys prune the most.
  RowsWritten Scan(const ResolvedPattern& rp,
                   std::span<const KeyFilter* const> filters, int part) {
    ScanFilter sf;
    for (const KeyFilter* f : filters) {
      const KeySet& keys = f->For(part);
      if (sf.keys == nullptr || keys.size() < sf.keys->size()) {
        sf = {f->var, &keys};
      }
    }
    PartitionScratch& s = buf_.parts[part];
    return ex_.cluster_.node(part).ScanInto(
        rp, Columns(s.out, rp.schema.size()), sf, &s.rows_decoded);
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
  // input first, then the gathered ones in child order. A gathered input
  // is its own table, deduplicated in place: one range every node reads.
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
      t.AsOneRange();
      DedupRanges(t, m_.dedup_rows, buf_.dedup);
      const std::uint64_t copy = t.GlobalRows();
      // Each node's copy is one shipment the flaky network may eat.
      const std::uint64_t rows = copy * static_cast<std::uint64_t>(n_);
      const std::uint64_t bytes = rows * RowBytes(t.rows.schema());
      for (int i = 0; i < n_; ++i) {
        PARQO_RETURN_IF_ERROR(DeliverBatch(rec_, m_, "broadcast", copy, i));
      }
      m_.rows_transferred += rows;
      m_.bytes_shipped += bytes;
      m_.edges.push_back({"broadcast", rows, bytes});
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
    std::vector<std::uint32_t>& route = buf_.route;
    std::vector<TermId*>& cursor = buf_.cursor;
    cursor.resize(n_);
    for (DistTable& t : children) {
      const int col = t.rows.ColumnOf(var);
      PARQO_CHECK(col >= 0);
      // One counting-sort scatter into one routed table: the target of
      // every row and the rows per target, which are the routed table's
      // node offsets, then every column filled once. The source table
      // holds node 0's rows first, so a target receives source 0's rows
      // in row order, then source 1's, and so on.
      const std::size_t rows = t.rows.NumRows();
      std::vector<std::size_t>& at = t.offsets;
      at.assign(n_ + 1, 0);
      const std::vector<TermId>& keys = t.rows.Column(col);
      route.resize(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        const int target = HashToNode(keys[r], n_);
        route[r] = static_cast<std::uint32_t>(target);
        ++at[target + 1];
      }
      for (int target = 0; target < n_; ++target) at[target + 1] += at[target];
      BindingTable routed(t.rows.schema());
      for (int col_i = 0; col_i < t.rows.num_cols(); ++col_i) {
        std::vector<TermId>& dst = routed.MutableColumn(col_i);
        dst.resize(rows);
        for (int target = 0; target < n_; ++target) {
          cursor[target] = dst.data() + at[target];
        }
        const std::vector<TermId>& from = t.rows.Column(col_i);
        for (std::size_t r = 0; r < rows; ++r) *cursor[route[r]]++ = from[r];
      }
      ReleaseIfLarge(route);
      t.rows = std::move(routed);
      t.sorted_by.assign(n_, kInvalidVarId);
      // Deliver (and count) at the receiving end so per-node sums
      // reproduce the totals exactly: every routed row has one target.
      // One target's batch is one shipment.
      for (int target = 0; target < n_; ++target) {
        PARQO_RETURN_IF_ERROR(DeliverBatch(rec_, m_, "repartition",
                                           at[target + 1] - at[target],
                                           target));
      }
      const std::uint64_t edge_bytes = rows * RowBytes(t.rows.schema());
      m_.rows_transferred += rows;
      m_.bytes_shipped += edge_bytes;
      m_.edges.push_back({"repartition", rows, edge_bytes});
      // Replicated source rows can meet at the target; dedup there
      // unless the source had none.
      DedupRanges(t, m_.dedup_rows, buf_.dedup);
      in.tables.push_back(&t);
    }
    // Every output row lives on the node its join-variable binding
    // hashes to.
    in.disjoint = true;
    return Status::Ok();
  }

  // The k-way join of partition `part` into its output columns: the
  // first two inputs read in place, each later one against the previous
  // step's output, which alternates between the partition's two step
  // buffers.
  RowsWritten JoinCascade(const JoinInputs& in, int part) {
    PartitionScratch& s = buf_.parts[part];
    BatchJoinOptions opts;
    opts.scratch = &s.join;
    const std::size_t k = in.tables.size();
    RowRange acc = in.tables[0]->Range(part);
    for (std::size_t j = 1; j < k; ++j) {
      const std::vector<VarId>& schema = in.schemas[j - 1];
      std::vector<TermId>* dst =
          Columns(j + 1 == k ? s.out : s.steps[j % 2], schema.size());
      const RowRange next = in.tables[j]->Range(part);
      // Merge kernel when both inputs arrive sorted on the single shared
      // variable (index scans establish the order; order-preserving
      // operators propagate it). Bit-identical to the hash kernel.
      RowsWritten w;
      if (MergeJoinKey(acc, next) != kInvalidVarId) {
        ++s.merge_joins;
        w = BatchMergeJoinInto(acc, next, schema, dst, opts);
      } else {
        w = BatchHashJoinInto(acc, next, schema, dst, opts);
      }
      acc = RowRange(&schema, dst, 0, w.rows, w.sorted_by);
    }
    ReleaseColumnsIfLarge(s.steps[0]);
    ReleaseColumnsIfLarge(s.steps[1]);
    return {acc.NumRows(), acc.sorted_by};
  }

  const Executor& ex_;
  ExecMetrics& m_;
  const int n_;
  ExecScratch::Buffers& buf_;
  Recovery rec_;
};

Result<BindingTable> Executor::Execute(const PlanNode& plan,
                                       ExecMetrics* metrics,
                                       ExecScratch* scratch) {
  Stopwatch watch;
  ExecMetrics local_metrics;
  ExecMetrics& m = metrics != nullptr ? *metrics : local_metrics;
  const int n = cluster_.num_nodes();
  ResetMetrics(m, n);
  ExecScratch local_scratch;
  ExecScratch& sc = scratch != nullptr ? *scratch : local_scratch;
  if (sc.buffers_ == nullptr) {
    sc.buffers_ = std::make_unique<ExecScratch::Buffers>();
  }
  Run run(*this, plan, m, *sc.buffers_);
  DistTable root;
  Status st = run.RunOperator(plan, 0, {}, root);
  BindingTable result;
  if (st.ok()) {
    m.measured_cost = root.cost;
    run.SumPartitionCounts();
    result = run.GatherRoot(root);
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
  run.TrimPartitions();
  if (!st.ok()) return st;
  return result;
}

Result<BindingTable> ExecuteAndProject(Executor& executor,
                                       const PlanNode& plan,
                                       const ParsedQuery& query,
                                       const JoinGraph& jg,
                                       ExecMetrics* metrics) {
  std::vector<VarId> vars;
  if (!query.select_all) {
    for (const std::string& name : query.select_vars) {
      VarId v = jg.FindVar(name);
      if (v == kInvalidVarId) {
        if (metrics != nullptr) {
          *metrics = ExecMetrics{};
          metrics->failed = true;
        }
        return Status::InvalidArgument("SELECT variable ?" + name +
                                       " does not occur in the query body");
      }
      vars.push_back(v);
    }
  }
  Result<BindingTable> full = executor.Execute(plan, metrics);
  if (!full.ok() || query.select_all) return full;
  return full->Project(vars);
}

}  // namespace parqo
