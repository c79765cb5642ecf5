// Fixed-size worker pool shared by the serving tier and the simulated
// cluster. Workers are started once and reused — submitting work never
// spawns a thread — which is what lets the server sustain a stream of
// queries (the Partout/PHD-Store workload shape) without thread-churn,
// and caps the executor's per-node fan-out.
//
// ParallelFor is the only blocking primitive and it is deadlock-free under
// nesting: the caller drains items itself while pool workers help, so
// progress never depends on a pool slot being free. This matters because
// a serving task may itself run node-parallel execution, and a pool task
// may call ParallelFor on its own pool.

#ifndef PARQO_COMMON_THREAD_POOL_H_
#define PARQO_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace parqo {

class ThreadPool {
 public:
  /// Starts `num_threads` workers; values < 1 are clamped to 1.
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains queued tasks, then joins the workers (via Shutdown).
  ~ThreadPool();

  int size() const { return static_cast<int>(threads_.size()); }

  /// Stops the pool: drains every task already queued, then joins the
  /// workers. Idempotent and safe to call concurrently with Submit and
  /// ParallelFor from other threads (concurrent callers of Shutdown block
  /// until the first one finishes) — only destruction itself requires
  /// external quiescence. After Shutdown, Submit runs tasks inline on the
  /// calling thread and ParallelFor degrades to a serial loop, so no work
  /// handed to a stopped pool is ever silently lost. The serving layer's
  /// session pipeline relies on this: a session that races server
  /// teardown must complete its task, not hang on a task nobody will run.
  void Shutdown();

  /// Enqueues a fire-and-forget task. If the pool has been shut down (or
  /// is shutting down), the task runs inline on the calling thread before
  /// Submit returns — it is never dropped.
  void Submit(std::function<void()> task);

  /// Runs fn(0), ..., fn(n-1) on the calling thread plus up to
  /// min(size(), n - 1) pool workers: with max_workers == 0 that is up to
  /// size() + 1 threads at once. max_workers > 0 caps the total, the
  /// caller included, so max_workers == 1 is a plain loop. The calling
  /// thread participates, so this never deadlocks even when invoked from
  /// inside a pool task; it returns once every index has completed.
  void ParallelFor(int n, const std::function<void(int)>& fn,
                   int max_workers = 0);

  /// Process-wide pool sized to hardware_concurrency. Created on first
  /// use and intentionally never destroyed (workers must outlive static
  /// destruction order).
  static ThreadPool& Global();

  /// max(1, std::thread::hardware_concurrency()).
  static int DefaultConcurrency();

 private:
  void WorkerLoop();

  /// Written once in the constructor, joined exactly once through
  /// shutdown_once_; size() reads only the never-changing length.
  // parqo-lint: allow(guarded-field) written in ctor only, joined via shutdown_once_
  std::vector<std::thread> threads_;
  Mutex mu_{LockRank::kPool};
  std::deque<std::function<void()>> queue_ PARQO_GUARDED_BY(mu_);
  bool stop_ PARQO_GUARDED_BY(mu_) = false;
  std::condition_variable cv_;
  /// Serializes Shutdown: the first caller joins the workers, concurrent
  /// callers (including the destructor) block until it is done.
  std::once_flag shutdown_once_;
};

}  // namespace parqo

#endif  // PARQO_COMMON_THREAD_POOL_H_
