// Deterministic fault injection and retry policy for the simulated
// cluster (DESIGN.md section 11). The paper's setting — shared-nothing
// nodes running distributed join jobs — is exactly where crashes,
// stragglers, and lost shipments are routine, so the executor must detect
// and recover from them rather than assume success.
//
// A FaultPlan is a seedable schedule of faults:
//
//   crash  - a node dies when its per-node operator counter reaches the
//            scheduled ordinal ("crash mid-scan / mid-join"). One-shot:
//            the event is consumed when it fires, so the recovery path is
//            not re-killed by the same event. Storage (NodeStore) is
//            durable, like DFS blocks under MapReduce: survivors re-read
//            the dead node's partition.
//   slow   - a straggler: every operator on the node is delayed by a
//            fixed amount (the only sanctioned sleep in the codebase;
//            tools/parqo_lint.py forbids naked sleeps elsewhere).
//   drop   - flaky network: each shipment is lost with probability p,
//            decided by a deterministic per-probe Bernoulli draw. Drops
//            can repeat on retry, which is what exhausts retry budgets.
//   sick   - a persistently failing node: every probe is refused until
//            CureNode() revives it. Unlike the one-shot crash event this
//            models cross-query sickness (and, cycled, a flapping node),
//            which is what the NodeHealthRegistry's circuit breakers
//            (exec/health.h, DESIGN.md section 16) exist to absorb.
//
// Recovery is bounded two ways: RetryPolicy caps one work item's
// attempts, and an optional RetryBudget caps the retries of every
// session together. A retry starts at once; there is no backoff.
//
// Plans are injected with an RAII FaultScope. When no scope is active the
// executor's probe is a single relaxed atomic load of a null pointer —
// production builds pay nothing (asserted by BM_FaultProbe* in
// bench/bench_micro.cc).

#ifndef PARQO_COMMON_FAULT_H_
#define PARQO_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_annotations.h"

namespace parqo {

/// Knobs for FaultPlan's seeded-random constructor. Probabilities are
/// per-node (crash/slow) or per-shipment (drop).
struct FaultPlanConfig {
  double crash_probability = 0.0;
  double slow_probability = 0.0;
  double drop_probability = 0.0;
  /// Straggler delay per operator on a slow node.
  double slow_seconds = 0.0005;
};

/// One run's worth of fault schedules. Thread-safe: the executor probes
/// it concurrently from simulated-node workers. All randomness is fixed
/// at construction or drawn from an internal seeded Rng, so a (seed,
/// plan, data) triple replays the identical fault sequence when the
/// probe order is deterministic (serial executor) and the identical fault
/// *set* under the parallel executor.
class FaultPlan {
 public:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// An empty plan (no faults) for `num_nodes` nodes; configure with the
  /// setters below.
  explicit FaultPlan(int num_nodes);

  /// Seeded-random plan: each node draws its crash/slow fate, and
  /// shipments are dropped with config.drop_probability.
  FaultPlan(std::uint64_t seed, int num_nodes,
            const FaultPlanConfig& config);

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// Schedules node `node` to crash when its operator counter reaches
  /// `ordinal` (0 = its very first operator).
  void CrashNodeAtOp(int node, std::uint64_t ordinal);
  /// Makes node `node` a straggler: every operator sleeps `seconds`.
  void SlowNode(int node, double seconds);
  /// Drops each shipment independently with probability `p`, drawn from
  /// a dedicated Rng seeded with `seed`.
  void DropShipments(double p, std::uint64_t seed);
  /// Marks node `node` persistently sick: every BeginNodeOp probe is
  /// refused (no sleep, no counter advance) until CureNode(). Unlike the
  /// one-shot crash this survives across queries, so consecutive
  /// sessions keep failing against the node — the workload a circuit
  /// breaker exists for. Safe to call between queries while a scope is
  /// active (atomic flag flip).
  void SickNode(int node);
  /// Revives a sick node; the next probe succeeds again. Alternating
  /// SickNode/CureNode is the flapping-node chaos scenario.
  void CureNode(int node);

  /// Executor probe: called once per (operator, node) work item before
  /// the work runs. Applies straggler delay, advances the node's operator
  /// counter, and returns false when the node's scheduled crash fires
  /// (consuming the event). A false return means the work item — and any
  /// partial output it would have produced — is lost.
  bool BeginNodeOp(int node);

  /// Executor probe: called once per shipment (one broadcast copy or one
  /// repartition batch). Returns false when the flaky network eats it.
  bool DeliverShipment();

  /// The straggler delay the next BeginNodeOp(node) would pay, without
  /// sleeping or advancing any counter. In the simulated cluster an
  /// attempt's in-flight time IS its injected delay, so this peek is the
  /// hedging scheduler's "elapsed time exceeded the threshold"
  /// observation, available at dispatch (exec/health.h).
  double PeekDelaySeconds(int node) const;

  /// True while `node` is marked sick (probes are being refused).
  bool IsSick(int node) const;

  /// Injection counters, for harness reporting and coverage assertions.
  std::uint64_t crashes_fired() const {
    return crashes_fired_.load(std::memory_order_relaxed);
  }
  std::uint64_t drops_fired() const {
    return drops_fired_.load(std::memory_order_relaxed);
  }
  std::uint64_t slow_ops() const {
    return slow_ops_.load(std::memory_order_relaxed);
  }
  std::uint64_t sick_refusals() const {
    return sick_refusals_.load(std::memory_order_relaxed);
  }

 private:
  struct NodeSchedule {
    std::atomic<std::uint64_t> ops{0};       ///< Operator counter.
    std::atomic<std::uint64_t> crash_at{kNever};
    std::atomic<char> sick{0};               ///< Persistent refusal flag.
    double slow_seconds = 0;                 ///< 0 = not a straggler.
  };

  /// Elements are atomics; the vector's shape is fixed at construction.
  // parqo-lint: allow(guarded-field) per-element atomics, sized in the ctor
  std::vector<NodeSchedule> nodes_;
  /// Written only by DropShipments during single-threaded plan setup,
  /// before any FaultScope publishes the plan to executor workers.
  // parqo-lint: allow(guarded-field) written during single-threaded setup only
  double drop_probability_ = 0;
  /// Guards drop_rng_ (shipments are not hot). Leaf lock.
  Mutex drop_mu_{LockRank::kFault};
  Rng drop_rng_ PARQO_GUARDED_BY(drop_mu_) = Rng(0);
  std::atomic<std::uint64_t> crashes_fired_{0};
  std::atomic<std::uint64_t> drops_fired_{0};
  std::atomic<std::uint64_t> slow_ops_{0};
  std::atomic<std::uint64_t> sick_refusals_{0};
};

namespace fault_internal {
/// The process-wide active plan. Null outside any FaultScope; the
/// executor's disabled-path probe is one relaxed load of this pointer.
inline std::atomic<FaultPlan*> g_active_plan{nullptr};
}  // namespace fault_internal

/// The plan installed by the innermost live FaultScope, or null.
inline FaultPlan* ActiveFaultPlan() {
  return fault_internal::g_active_plan.load(std::memory_order_acquire);
}

/// RAII injection scope: installs `plan` process-wide for its lifetime
/// and restores the previous plan (usually null) on destruction. Scopes
/// are installed/removed single-threaded (test or bench setup code);
/// executor workers only read.
class FaultScope {
 public:
  explicit FaultScope(FaultPlan* plan)
      : prev_(fault_internal::g_active_plan.exchange(
            plan, std::memory_order_acq_rel)) {}
  ~FaultScope() {
    fault_internal::g_active_plan.store(prev_, std::memory_order_release);
  }

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  FaultPlan* prev_;
};

/// Cluster-wide fixed budget bounding the TOTAL number of retries across
/// every concurrent session (DESIGN.md section 16). Per-query RetryPolicy
/// bounds how hard ONE query tries; under correlated faults N concurrent
/// queries each retrying K times is an N*K storm against a cluster that
/// is already sick. The budget caps the storm: each retry attempt
/// (never the first attempt) must win a token, and an empty budget
/// degrades the query to a typed kUnavailable instead of another retry.
///
/// Lock-free: one CAS per acquire, and at most `capacity` acquires ever
/// succeed — exactly the bound the chaos sweeps assert.
class RetryBudget {
 public:
  explicit RetryBudget(std::uint64_t capacity) : capacity_(capacity) {}

  RetryBudget(const RetryBudget&) = delete;
  RetryBudget& operator=(const RetryBudget&) = delete;

  /// Claims one token; false when the budget is spent (counted in
  /// acquired() / denied()).
  bool TryAcquire();

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t acquired() const {
    return acquired_.load(std::memory_order_relaxed);
  }
  std::uint64_t denied() const {
    return denied_.load(std::memory_order_relaxed);
  }
  /// Tokens still claimable.
  std::uint64_t remaining() const {
    return capacity_ - acquired_.load(std::memory_order_relaxed);
  }

 private:
  const std::uint64_t capacity_;
  std::atomic<std::uint64_t> acquired_{0};
  std::atomic<std::uint64_t> denied_{0};
};

/// Bounded-retry policy shared by the executor's recovery loop. Retries
/// start at once: a simulated fault has no cause that waiting would
/// clear, so there is no backoff schedule.
struct RetryPolicy {
  /// Total attempts including the first; 0 forbids even the first try.
  int max_attempts = 4;
  /// Optional shared cluster-wide budget (not owned; must outlive every
  /// Retry built from this policy). When set, every attempt after the
  /// first draws one token; an empty budget stops the retry loop with
  /// budget_exhausted() so callers report kUnavailable.
  RetryBudget* budget = nullptr;
};

/// One operation's retry state: the attempt count and, under a shared
/// RetryBudget, the token claimed for the next retry.
class Retry {
 public:
  explicit Retry(const RetryPolicy& policy) : policy_(policy) {}

  /// True while another attempt may start: attempt budget left and — for
  /// attempts after the first, when the policy carries a cluster-wide
  /// RetryBudget — a token claimable. The token is claimed here (at most
  /// one per approved retry; a held token survives repeated calls) and
  /// consumed by BeginAttempt(), so every started retry accounts for
  /// exactly one budget draw.
  bool ShouldRetry() {
    if (attempts_started_ >= policy_.max_attempts) return false;
    if (attempts_started_ > 0 && policy_.budget != nullptr &&
        !token_held_) {
      token_held_ = policy_.budget->TryAcquire();
      if (!token_held_) {
        budget_exhausted_ = true;
        return false;
      }
    }
    return true;
  }

  /// Records the start of an attempt; returns its 0-based index.
  /// Requires ShouldRetry().
  int BeginAttempt() {
    PARQO_CHECK(ShouldRetry());
    token_held_ = false;
    return attempts_started_++;
  }

  int attempts_started() const { return attempts_started_; }
  /// True when the retry loop stopped because the shared RetryBudget ran
  /// dry (as opposed to per-query attempts) — callers surface this in
  /// the typed kUnavailable message.
  bool budget_exhausted() const { return budget_exhausted_; }

 private:
  RetryPolicy policy_;
  int attempts_started_ = 0;
  bool token_held_ = false;
  bool budget_exhausted_ = false;
};

/// The codebase's single sanctioned sleep (see the naked-sleep rule in
/// tools/parqo_lint.py): straggler injection waits through here, and no
/// retry sleeps at all (the retry-budget rule). No-op for non-positive
/// durations.
void SleepSeconds(double seconds);

}  // namespace parqo

#endif  // PARQO_COMMON_FAULT_H_
