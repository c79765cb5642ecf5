#include "server/server.h"

#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/tp_set.h"
#include "query/join_graph.h"

namespace parqo {

std::unique_ptr<ExecScratch> ScratchShelf::Borrow() {
  {
    MutexLock lock(mu_);
    if (!idle_.empty()) {
      std::unique_ptr<ExecScratch> scratch = std::move(idle_.back());
      idle_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<ExecScratch>();
}

void ScratchShelf::Return(std::unique_ptr<ExecScratch> scratch) {
  MutexLock lock(mu_);
  idle_.push_back(std::move(scratch));
}

QueryServer::QueryServer(const RdfGraph& graph, const Cluster& cluster,
                         const Partitioner& partitioner, ServerConfig config)
    : graph_(graph),
      cluster_(cluster),
      partitioner_(partitioner),
      config_(std::move(config)),
      stats_(StatsFromData(graph)),
      health_(config_.enable_health
                  ? std::make_unique<NodeHealthRegistry>(
                        cluster.num_nodes(), config_.health)
                  : nullptr),
      retry_budget_(config_.retry_budget > 0
                        ? std::make_unique<RetryBudget>(config_.retry_budget)
                        : nullptr),
      cache_(config_.cache_shards, config_.cache_shard_capacity),
      admission_(config_.max_in_flight),
      pool_(config_.num_threads > 0 ? config_.num_threads
                                    : ThreadPool::DefaultConcurrency()) {}

ServeResult QueryServer::Serve(const std::vector<TriplePattern>& patterns,
                               double deadline_seconds) {
  Stopwatch total;

  AdmissionTicket ticket(admission_);
  if (!ticket) {
    ServeResult out;
    out.status = Status::Overloaded(
        "server at in-flight capacity; back off and re-submit");
    out.total_seconds = total.ElapsedSeconds();
    return out;
  }

  ServeResult out = ServeAdmitted(patterns, deadline_seconds);
  out.total_seconds = total.ElapsedSeconds();
  return out;
}

ServeResult QueryServer::ServeAdmitted(
    const std::vector<TriplePattern>& patterns, double deadline_seconds) {
  ServeResult out;
  if (patterns.empty()) {
    out.status = Status::InvalidArgument("empty basic graph pattern");
    return out;
  }
  if (static_cast<int>(patterns.size()) > TpSet::kMaxSize) {
    out.status = Status::InvalidArgument("query exceeds TpSet::kMaxSize");
    return out;
  }

  CanonicalBgp canon = CanonicalizeBgp(patterns);
  out.signature = canon.signature;
  out.exact_signature = canon.exact;
  out.var_names = canon.var_names;
  const std::string key =
      PlanCache::MakeKey(canon.signature, partitioner_.name());

  std::optional<CachedPlan> hit = cache_.Lookup(key);
  out.cache_hit = hit.has_value();
  // A hit on a degraded entry re-optimizes, so a deadline casualty never
  // poisons future requests that have budget, and upgrades the entry when
  // the re-optimization completes cleanly.
  const bool reoptimizing_degraded = hit && hit->degraded;

  CachedPlan entry;
  if (hit && !reoptimizing_degraded) {
    entry = std::move(*hit);
  } else {
    // Miss (or degraded hit worth upgrading): optimize in canonical
    // space under the per-query deadline. The canonical pattern order
    // fixes the JoinGraph's tp indexes and VarIds, so the plan cached
    // here executes directly for every future query with this signature.
    PreparedQuery prepared(canon.patterns, partitioner_, stats_);
    OptimizeOptions options = config_.options;
    double budget = deadline_seconds < 0 ? config_.query_deadline_seconds
                                         : deadline_seconds;
    options.deadline = budget > 0 ? Deadline::AfterSeconds(budget)
                                  : Deadline::Infinite();
    OptimizeResult opt =
        Optimize(config_.algorithm, prepared.inputs(), options);
    out.optimize_seconds = opt.seconds;
    if (!opt.plan) {
      out.status = Status::DeadlineExceeded(
          "optimizer produced no plan within its budget");
      return out;
    }
    entry.plan = opt.plan;
    entry.plan_cost = opt.plan->total_cost;
    entry.algorithm_used = opt.algorithm_used;
    entry.degraded = opt.timed_out;
    if (reoptimizing_degraded) {
      out.reoptimized = true;
      if (entry.degraded) {
        // The upgrade attempt degraded too; keep the existing entry's
        // recency rather than churning the slot.
        entry = std::move(*hit);
      }
    }
    cache_.Insert(key, entry);
  }

  out.degraded = entry.degraded;
  out.plan = entry.plan;
  out.plan_cost = entry.plan_cost;
  out.algorithm_used = entry.algorithm_used;

  // Execute in canonical space. The JoinGraph here is cheap (no stats,
  // no partitioning analysis) and assigns the same VarIds the plan was
  // optimized against, because canonical order is a function of the
  // signature alone.
  JoinGraph jg(canon.patterns);
  RetryPolicy retry = config_.retry;
  retry.budget = retry_budget_.get();  // null = per-query policy only
  Executor executor(cluster_, jg, config_.options.cost_params,
                    config_.parallel_exec_nodes, retry, config_.engine,
                    health_.get());
  std::unique_ptr<ExecScratch> scratch = scratch_.Borrow();
  Stopwatch exec_watch;
  Result<BindingTable> rows =
      executor.Execute(*entry.plan, &out.exec_metrics, scratch.get());
  out.execute_seconds = exec_watch.ElapsedSeconds();
  scratch_.Return(std::move(scratch));
  // Feed the health registry failed-or-not: failures already reached it
  // mid-query (breakers trip on detection) and successes carry the
  // latency samples.
  if (health_ != nullptr) health_->RecordSession(out.exec_metrics);
  if (!rows.ok()) {
    out.status = rows.status();
    return out;
  }
  out.rows = std::move(*rows);
  out.status = Status::Ok();
  return out;
}

std::vector<ServeResult> QueryServer::ServeConcurrent(
    const std::vector<std::vector<TriplePattern>>& stream, int clients) {
  std::vector<ServeResult> out(stream.size());
  ServeConcurrent(stream, clients,
                  [&](std::size_t i, ServeResult r) { out[i] = std::move(r); });
  return out;
}

void QueryServer::ServeConcurrent(
    const std::vector<std::vector<TriplePattern>>& stream, int clients,
    const std::function<void(std::size_t, ServeResult)>& consume) {
  PARQO_CHECK(clients >= 1);
  pool_.ParallelFor(
      static_cast<int>(stream.size()),
      [&](int i) { consume(static_cast<std::size_t>(i), Serve(stream[i])); },
      clients);
}

}  // namespace parqo
