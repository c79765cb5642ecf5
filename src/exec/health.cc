#include "exec/health.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace parqo {
namespace {

constexpr int kClosed = static_cast<int>(BreakerState::kClosed);
constexpr int kOpen = static_cast<int>(BreakerState::kOpen);
constexpr int kHalfOpen = static_cast<int>(BreakerState::kHalfOpen);

}  // namespace

NodeHealthRegistry::NodeHealthRegistry(int num_nodes, HealthConfig config)
    : config_(config),
      nodes_(num_nodes),
      hedge_threshold_(std::numeric_limits<double>::infinity()) {
  PARQO_CHECK(num_nodes > 0);
}

bool NodeHealthRegistry::AllowRoute(int node) {
  PARQO_CHECK(node >= 0 && node < num_nodes());
  NodeHealth& n = nodes_[node];
  int s = n.state.load(std::memory_order_relaxed);
  if (s == kClosed) return true;
  if (s == kOpen) {
    double opened = n.opened_at.load(std::memory_order_relaxed);
    if (clock_.ElapsedSeconds() - opened >= config_.cooldown_seconds) {
      int expected = kOpen;
      if (n.state.compare_exchange_strong(expected, kHalfOpen,
                                          std::memory_order_relaxed)) {
        // This caller won the single half-open probe slot; its session
        // routes to the node and its outcome decides close-or-reopen.
        probes_started_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }
  // Open inside cooldown, or half-open with the probe claimed elsewhere.
  routes_denied_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void NodeHealthRegistry::Open(NodeHealth& n) {
  int s = n.state.load(std::memory_order_relaxed);
  for (;;) {
    if (s == kOpen) return;  // already open; keep the older opened_at
    if (n.state.compare_exchange_weak(s, kOpen,
                                      std::memory_order_relaxed)) {
      break;
    }
  }
  n.opened_at.store(clock_.ElapsedSeconds(), std::memory_order_relaxed);
  breaker_opens_.fetch_add(1, std::memory_order_relaxed);
}

void NodeHealthRegistry::Close(NodeHealth& n) {
  int expected = kHalfOpen;
  if (!n.state.compare_exchange_strong(expected, kClosed,
                                       std::memory_order_relaxed)) {
    return;
  }
  breaker_closes_.fetch_add(1, std::memory_order_relaxed);
}

void NodeHealthRegistry::RecordNodeFailure(int node) {
  PARQO_CHECK(node >= 0 && node < num_nodes());
  NodeHealth& n = nodes_[node];
  n.failures_total.fetch_add(1, std::memory_order_relaxed);
  int failures =
      n.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  int s = n.state.load(std::memory_order_relaxed);
  if (s == kHalfOpen) {
    // The probe failed: straight back to open, cooldown restarts.
    Open(n);
    return;
  }
  if (s == kClosed && failures >= kFailureThreshold) Open(n);
}

void NodeHealthRegistry::RecordNodeSuccess(int node, double op_seconds) {
  PARQO_CHECK(node >= 0 && node < num_nodes());
  NodeHealth& n = nodes_[node];
  n.successes_total.fetch_add(1, std::memory_order_relaxed);
  n.consecutive_failures.store(0, std::memory_order_relaxed);
  if (n.state.load(std::memory_order_relaxed) == kHalfOpen) Close(n);
  if (op_seconds <= 0) return;
  // Lock-free EWMA: CAS the double's bit pattern. Zero bits mean "no
  // sample yet" (a real sample is always > 0, so the patterns are
  // disjoint).
  std::uint64_t cur = n.ewma_bits.load(std::memory_order_relaxed);
  for (;;) {
    double next =
        cur == 0
            ? op_seconds
            : kEwmaAlpha * op_seconds +
                  (1.0 - kEwmaAlpha) * std::bit_cast<double>(cur);
    if (n.ewma_bits.compare_exchange_weak(cur,
                                          std::bit_cast<std::uint64_t>(next),
                                          std::memory_order_relaxed)) {
      return;
    }
  }
}

double NodeHealthRegistry::EwmaOpSeconds(int node) const {
  PARQO_CHECK(node >= 0 && node < num_nodes());
  std::uint64_t bits = nodes_[node].ewma_bits.load(std::memory_order_relaxed);
  return bits == 0 ? 0.0 : std::bit_cast<double>(bits);
}

void NodeHealthRegistry::RecomputeHedgeThreshold() {
  std::vector<double> samples;
  samples.reserve(nodes_.size());
  for (const NodeHealth& n : nodes_) {
    std::uint64_t bits = n.ewma_bits.load(std::memory_order_relaxed);
    if (bits != 0) samples.push_back(std::bit_cast<double>(bits));
  }
  double threshold = std::numeric_limits<double>::infinity();
  if (!samples.empty()) {
    std::sort(samples.begin(), samples.end());
    double pos = kHedgeQuantile * static_cast<double>(samples.size() - 1);
    std::size_t idx = static_cast<std::size_t>(pos);
    double quantile = samples[idx];
    if (idx + 1 < samples.size()) {
      double frac = pos - static_cast<double>(idx);
      quantile += frac * (samples[idx + 1] - samples[idx]);
    }
    threshold = std::max(kHedgeMinSeconds, kHedgeMultiplier * quantile);
  }
  hedge_threshold_.store(threshold, std::memory_order_relaxed);
}

void NodeHealthRegistry::RecordSession(const ExecMetrics& m) {
  // Per-node feedback. Mid-query failures were already reported by the
  // executor's RecordNodeFailure the moment each probe failed, so the
  // session pass only records successes: a node that did work and never
  // failed this session observed (busy / ops) mean per-op latency.
  int n = std::min(num_nodes(), static_cast<int>(m.node_ops.size()));
  for (int i = 0; i < n; ++i) {
    std::uint64_t ops = m.node_ops[i];
    std::uint64_t failures =
        i < static_cast<int>(m.node_failures.size()) ? m.node_failures[i]
                                                     : 0;
    if (ops == 0 || failures > 0) continue;
    RecordNodeSuccess(i, m.node_busy_seconds[i] /
                             static_cast<double>(ops));
  }

  MutexLock lock(mu_);
  RecomputeHedgeThreshold();
}

}  // namespace parqo
