#include "common/fault.h"

#include <chrono>
#include <thread>

namespace parqo {
namespace {

// A scheduled crash fires at a uniform ordinal in [0, kCrashWindow) of
// the node's operator sequence, so crashes land mid-plan, not only at the
// first scan.
constexpr std::int64_t kCrashWindow = 8;

}  // namespace

FaultPlan::FaultPlan(int num_nodes) : nodes_(num_nodes) {
  PARQO_CHECK(num_nodes > 0);
}

FaultPlan::FaultPlan(std::uint64_t seed, int num_nodes,
                     const FaultPlanConfig& config)
    : FaultPlan(num_nodes) {
  Rng rng(seed);
  for (int i = 0; i < num_nodes; ++i) {
    if (rng.Bernoulli(config.crash_probability)) {
      CrashNodeAtOp(i, static_cast<std::uint64_t>(
                           rng.Uniform(0, kCrashWindow - 1)));
    }
    if (rng.Bernoulli(config.slow_probability)) {
      SlowNode(i, config.slow_seconds);
    }
  }
  if (config.drop_probability > 0) {
    DropShipments(config.drop_probability, rng.Next());
  }
}

void FaultPlan::CrashNodeAtOp(int node, std::uint64_t ordinal) {
  PARQO_CHECK(node >= 0 && node < num_nodes());
  nodes_[node].crash_at.store(ordinal, std::memory_order_relaxed);
}

void FaultPlan::SlowNode(int node, double seconds) {
  PARQO_CHECK(node >= 0 && node < num_nodes());
  nodes_[node].slow_seconds = seconds;
}

void FaultPlan::DropShipments(double p, std::uint64_t seed) {
  PARQO_CHECK(p >= 0 && p <= 1);
  drop_probability_ = p;
  MutexLock lock(drop_mu_);
  drop_rng_ = Rng(seed);
}

void FaultPlan::SickNode(int node) {
  PARQO_CHECK(node >= 0 && node < num_nodes());
  nodes_[node].sick.store(1, std::memory_order_relaxed);
}

void FaultPlan::CureNode(int node) {
  PARQO_CHECK(node >= 0 && node < num_nodes());
  nodes_[node].sick.store(0, std::memory_order_relaxed);
}

double FaultPlan::PeekDelaySeconds(int node) const {
  PARQO_CHECK(node >= 0 && node < num_nodes());
  return nodes_[node].slow_seconds;
}

bool FaultPlan::IsSick(int node) const {
  PARQO_CHECK(node >= 0 && node < num_nodes());
  return nodes_[node].sick.load(std::memory_order_relaxed) != 0;
}

bool FaultPlan::BeginNodeOp(int node) {
  PARQO_CHECK(node >= 0 && node < num_nodes());
  NodeSchedule& sched = nodes_[node];
  // A sick node refuses the probe outright: no straggler sleep, no
  // operator-counter advance, no one-shot event consumed. Persistent by
  // design — the detection repeats every query until CureNode().
  if (sched.sick.load(std::memory_order_relaxed) != 0) {
    sick_refusals_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (sched.slow_seconds > 0) {
    slow_ops_.fetch_add(1, std::memory_order_relaxed);
    SleepSeconds(sched.slow_seconds);
  }
  std::uint64_t op = sched.ops.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t crash_at = sched.crash_at.load(std::memory_order_relaxed);
  if (op < crash_at) return true;
  // The scheduled ordinal was reached (or overshot, when several work
  // items race on one node): fire at most once.
  if (sched.crash_at.exchange(kNever, std::memory_order_relaxed) == kNever) {
    return true;  // a racing work item already consumed the event
  }
  crashes_fired_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool FaultPlan::DeliverShipment() {
  if (drop_probability_ <= 0) return true;
  bool dropped;
  {
    MutexLock lock(drop_mu_);
    dropped = drop_rng_.Bernoulli(drop_probability_);
  }
  if (dropped) drops_fired_.fetch_add(1, std::memory_order_relaxed);
  return !dropped;
}

bool RetryBudget::TryAcquire() {
  std::uint64_t cur = acquired_.load(std::memory_order_relaxed);
  for (;;) {
    if (cur >= capacity_) {
      denied_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (acquired_.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_relaxed)) {
      return true;
    }
  }
}

void SleepSeconds(double seconds) {
  if (seconds <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace parqo
