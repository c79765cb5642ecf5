// Cross-query node health: EWMA latency tracking, failure counting, and
// per-node circuit breakers (DESIGN.md section 16).
//
// PR 4's recovery layer is per-query: every session independently pays
// the full detect-crash / re-home / retry cycle against the same sick
// node, and concurrent sessions amplify each other into retry storms.
// The NodeHealthRegistry is the piece of state that REMEMBERS: the
// server feeds it every session's ExecMetrics, it tracks per-node EWMA
// operator latency and consecutive-failure counts, and it drives one
// circuit breaker per simulated node:
//
//       closed ── failure_threshold consecutive failures ──> open
//       open ── cooldown elapsed, first router claims probe ──> half-open
//       half-open ── probe session succeeds on the node ──> closed
//       half-open ── probe session fails on the node ──> open (again)
//
// The executor consults the registry BEFORE dispatch (AllowRoute): open
// nodes are quarantined — their partitions are pre-emptively re-homed to
// survivors, so the session never discovers the crash mid-scan. The
// registry also derives a hedge threshold (a quantile over the per-node
// EWMA latencies) that the executor compares against a node's in-flight
// delay to trigger speculative re-execution.
//
// Concurrency: the executor-facing read path (AllowRoute /
// HedgeThresholdSeconds) is lock-free — atomic per-node state, breaker
// transitions by CAS. The feedback path (RecordSession) takes mu_
// (LockRank::kHealth) only to recompute the derived hedge threshold;
// per-node EWMA updates themselves are CAS loops on bit-cast doubles so
// RecordNodeSuccess/Failure may also be called mid-query from executor
// workers.

#ifndef PARQO_EXEC_HEALTH_H_
#define PARQO_EXEC_HEALTH_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "exec/executor.h"

namespace parqo {

/// The one health setting callers choose. Tests shrink/grow it to pin
/// breaker transitions.
struct HealthConfig {
  /// Seconds an open breaker waits before offering a half-open probe.
  double cooldown_seconds = 0.5;
};

enum class BreakerState : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

class NodeHealthRegistry {
 public:
  /// EWMA weight of the newest sample (higher = faster adaptation).
  static constexpr double kEwmaAlpha = 0.3;
  /// Consecutive failures that trip a breaker closed -> open.
  static constexpr int kFailureThreshold = 3;
  /// The hedge threshold is kHedgeMultiplier times this quantile of the
  /// per-node EWMA operator latencies (nodes with samples only).
  static constexpr double kHedgeQuantile = 0.9;
  static constexpr double kHedgeMultiplier = 4.0;
  /// Never hedge below this absolute in-flight delay, regardless of how
  /// fast the healthy quantile is — hedging microsecond ops is waste.
  static constexpr double kHedgeMinSeconds = 1e-4;

  explicit NodeHealthRegistry(int num_nodes,
                              HealthConfig config = HealthConfig());

  NodeHealthRegistry(const NodeHealthRegistry&) = delete;
  NodeHealthRegistry& operator=(const NodeHealthRegistry&) = delete;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const HealthConfig& config() const { return config_; }

  // -- Executor-facing routing (lock-free) -----------------------------

  /// Routing decision for one session's dispatch. Closed breaker: route.
  /// Open breaker inside cooldown: avoid (quarantine). Open breaker past
  /// cooldown: exactly one caller wins the CAS to half-open and routes
  /// (the probe); everyone else keeps avoiding until the probe's outcome
  /// is recorded. NOT idempotent — introspection should use state().
  bool AllowRoute(int node);

  /// Current hedge threshold in seconds; +infinity until enough healthy
  /// samples exist to derive a quantile.
  double HedgeThresholdSeconds() const {
    return hedge_threshold_.load(std::memory_order_relaxed);
  }

  // -- Feedback --------------------------------------------------------

  /// Feeds one finished session's metrics: per-node EWMA updates from
  /// node busy time, failure/success bookkeeping (success on a probed
  /// half-open node closes its breaker), and recomputation of the
  /// derived hedge threshold. Call after EVERY session,
  /// failed or not — failures are what breakers eat.
  void RecordSession(const ExecMetrics& m);

  /// One mid-query crash detection on `node` (executor calls this the
  /// moment a probe fails, so a breaker can trip within a single
  /// session's retry loop rather than one session per failure).
  void RecordNodeFailure(int node);

  /// One successful observation on `node` with mean per-op latency
  /// `op_seconds` (<= 0 records the success but skips the EWMA update).
  void RecordNodeSuccess(int node, double op_seconds);

  // -- Introspection (tests, bench, metrics) ---------------------------

  BreakerState state(int node) const {
    return static_cast<BreakerState>(
        nodes_[node].state.load(std::memory_order_relaxed));
  }
  double EwmaOpSeconds(int node) const;
  int consecutive_failures(int node) const {
    return nodes_[node].consecutive_failures.load(
        std::memory_order_relaxed);
  }
  std::uint64_t breaker_opens() const {
    return breaker_opens_.load(std::memory_order_relaxed);
  }
  std::uint64_t breaker_closes() const {
    return breaker_closes_.load(std::memory_order_relaxed);
  }
  std::uint64_t probes_started() const {
    return probes_started_.load(std::memory_order_relaxed);
  }
  std::uint64_t routes_denied() const {
    return routes_denied_.load(std::memory_order_relaxed);
  }

 private:
  struct NodeHealth {
    std::atomic<int> state{static_cast<int>(BreakerState::kClosed)};
    std::atomic<int> consecutive_failures{0};
    /// EWMA of per-op latency, stored as the double's bit pattern so the
    /// CAS update loop needs no lock. Zero bits until the first sample.
    std::atomic<std::uint64_t> ewma_bits{0};
    /// Stopwatch-relative time the breaker last opened.
    std::atomic<double> opened_at{0};
    std::atomic<std::uint64_t> failures_total{0};
    std::atomic<std::uint64_t> successes_total{0};
  };

  void Open(NodeHealth& n);
  void Close(NodeHealth& n);
  /// Recomputes hedge_threshold_ from the per-node EWMAs. Serialized by
  /// mu_; reads the atomics, publishes one atomic result.
  void RecomputeHedgeThreshold() PARQO_REQUIRES(mu_);

  const HealthConfig config_;
  /// Steady clock for breaker cooldowns; immutable after construction.
  // parqo-lint: allow(guarded-field) read-only steady-clock epoch
  Stopwatch clock_;

  /// Elements are atomics; the vector's shape is fixed at construction.
  // parqo-lint: allow(guarded-field) per-element atomics, sized in the ctor
  std::vector<NodeHealth> nodes_;

  std::atomic<double> hedge_threshold_;

  std::atomic<std::uint64_t> breaker_opens_{0};
  std::atomic<std::uint64_t> breaker_closes_{0};
  std::atomic<std::uint64_t> probes_started_{0};
  std::atomic<std::uint64_t> routes_denied_{0};

  /// Serializes derived-threshold recomputation; never held while
  /// calling out of this class.
  Mutex mu_{LockRank::kHealth};
};

}  // namespace parqo

#endif  // PARQO_EXEC_HEALTH_H_
