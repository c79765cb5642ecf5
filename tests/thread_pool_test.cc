// Tests for ThreadPool's lifecycle and ParallelFor edge cases: tasks
// submitted before destruction must all run (the destructor drains the
// queue), ParallelFor must handle n == 0, n == 1, max_workers > n, and
// nesting without hanging or dropping indexes, and it runs as many
// threads at once as its contract says.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace parqo {
namespace {

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  ThreadPool neg(-3);
  EXPECT_EQ(neg.size(), 1);
  std::atomic<int> ran{0};
  neg.Submit([&ran] { ++ran; });
  neg.ParallelFor(4, [&ran](int) { ++ran; });
  EXPECT_GE(ran.load(), 4);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  // Submit far more tasks than workers and destroy immediately: every
  // queued task must still execute exactly once before join returns. A
  // pool that discards its queue on stop loses fire-and-forget work that
  // the serving pipeline treats as durable.
  constexpr int kTasks = 200;
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&ran] {
        // Stagger a little so destruction overlaps a non-empty queue.
        std::this_thread::yield();
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // ~ThreadPool races with the queue still mostly full.
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPoolTest, SubmitRacingDestructionNeverDropsPreDtorTasks) {
  // A producer thread submits continuously while the main thread destroys
  // the pool. Tasks enqueued before the destructor completes must run;
  // the producer stops once it observes the pool gone. Run several rounds
  // to give the race a chance to interleave differently.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> submitted{0};
    std::atomic<int> ran{0};
    std::atomic<bool> stop{false};
    auto pool = std::make_unique<ThreadPool>(2);
    std::thread producer([&] {
      while (!stop.load(std::memory_order_acquire)) {
        pool->Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        submitted.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
    });
    // parqo-lint: allow(naked-sleep) let the producer race for a bounded 1ms
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stop.store(true, std::memory_order_release);
    producer.join();  // all Submits complete before destruction starts
    int final_submitted = submitted.load();
    pool.reset();  // must drain everything already queued
    EXPECT_EQ(ran.load(), final_submitted);
  }
}

TEST(ThreadPoolTest, ParallelForZeroIsNoOp) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&calls](int) { ++calls; });
  pool.ParallelFor(-5, [&calls](int) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ParallelForSingleItemRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id executed_on;
  pool.ParallelFor(1, [&](int i) {
    EXPECT_EQ(i, 0);
    executed_on = std::this_thread::get_id();
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(executed_on, caller);  // n == 1 never pays for a dispatch
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&hits](int i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ParallelForMaxWorkersExceedingN) {
  // max_workers larger than n (and than the pool) must neither hang nor
  // double-run indexes: only n - 1 helper slots can ever claim work.
  ThreadPool pool(2);
  constexpr int kN = 8;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(
      kN, [&hits](int i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
      /*max_workers=*/64);
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, ParallelForMaxWorkersOneIsSerial) {
  ThreadPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  pool.ParallelFor(
      16,
      [&](int) {
        int now = concurrent.fetch_add(1) + 1;
        int p = peak.load();
        while (now > p && !peak.compare_exchange_weak(p, now)) {
        }
        std::this_thread::yield();
        concurrent.fetch_sub(1);
      },
      /*max_workers=*/1);
  EXPECT_EQ(peak.load(), 1);
}

// The most threads inside fn at once during ParallelFor(64, fn,
// max_workers). Each call holds until `expected` calls have entered (at
// most 5 s), then for up to 100 ms more unless one more has: `expected`
// threads are all seen at once, and a thread beyond them would be.
int PeakConcurrency(ThreadPool& pool, int max_workers, int expected) {
  std::atomic<int> entered{0};
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  pool.ParallelFor(
      64,
      [&](int) {
        const int now = concurrent.fetch_add(1) + 1;
        int p = peak.load();
        while (now > p && !peak.compare_exchange_weak(p, now)) {
        }
        entered.fetch_add(1);
        const auto hold_until = [&](int n, std::chrono::milliseconds limit) {
          const auto deadline = std::chrono::steady_clock::now() + limit;
          while (entered.load() < n &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        };
        hold_until(expected, std::chrono::milliseconds(5000));
        hold_until(expected + 1, std::chrono::milliseconds(100));
        concurrent.fetch_sub(1);
      },
      max_workers);
  return peak.load();
}

TEST(ThreadPoolTest, ParallelForRunsTheCallerBesidesThePool) {
  // Uncapped, the caller joins every worker: size() + 1 threads.
  for (int size : {1, 2, 4}) {
    ThreadPool pool(size);
    EXPECT_EQ(PeakConcurrency(pool, 0, size + 1), size + 1) << size;
  }
  // A cap counts the caller: max_workers threads in all.
  ThreadPool pool(4);
  for (int k : {1, 2, 4}) {
    EXPECT_EQ(PeakConcurrency(pool, k, k), k) << k;
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Every outer item runs an inner ParallelFor on the SAME pool. With a
  // pool smaller than the outer fan-out, progress must not depend on a
  // free pool slot — the calling task drains inner items itself.
  ThreadPool pool(2);
  constexpr int kOuter = 8;
  constexpr int kInner = 8;
  std::atomic<int> total{0};
  pool.ParallelFor(kOuter, [&](int) {
    pool.ParallelFor(kInner, [&total](int) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), kOuter * kInner);
}

TEST(ThreadPoolTest, ParallelForFromInsideSubmittedTask) {
  ThreadPool pool(1);  // single worker: the task itself must make progress
  std::atomic<int> total{0};
  std::atomic<bool> done{false};
  pool.Submit([&] {
    pool.ParallelFor(32, [&total](int) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
    done.store(true, std::memory_order_release);
  });
  // Bounded wait so a deadlock fails the test instead of hanging ctest.
  for (int i = 0; i < 2000 && !done.load(std::memory_order_acquire); ++i) {
    // parqo-lint: allow(naked-sleep) bounded 2s poll; deadlock fails, not hangs
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(done.load());
  EXPECT_EQ(total.load(), 32);
}

// ---------------------------------------------------------------------------
// Shutdown semantics. The original hazard: workers exit once stop is set
// and the queue drains, so a Submit that arrives after shutdown parked
// its task in the queue forever — a ParallelFor whose helpers were
// submitted that way would hang waiting for indexes nobody runs. The fix
// contract: Shutdown is explicit and idempotent, post-shutdown Submit
// runs inline, post-shutdown ParallelFor degrades to a serial loop.

TEST(ThreadPoolTest, SubmitAfterShutdownRunsInline) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::atomic<int> ran{0};
  std::thread::id executed_on;
  pool.Submit([&] {
    executed_on = std::this_thread::get_id();
    ++ran;
  });
  EXPECT_EQ(ran.load(), 1);  // ran before Submit returned, not dropped
  EXPECT_EQ(executed_on, std::this_thread::get_id());
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 16);  // the first Shutdown drained everything
  pool.Shutdown();
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 16);
}  // ~ThreadPool calls Shutdown a fourth time; must also be a no-op.

TEST(ThreadPoolTest, ParallelForAfterShutdownRunsSeriallyAndCompletely) {
  ThreadPool pool(4);
  pool.Shutdown();
  constexpr int kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  pool.ParallelFor(kN, [&](int i) {
    int now = concurrent.fetch_add(1) + 1;
    int p = peak.load();
    while (now > p && !peak.compare_exchange_weak(p, now)) {
    }
    hits[i].fetch_add(1, std::memory_order_relaxed);
    concurrent.fetch_sub(1);
  });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  // Helpers submitted to a stopped pool drain inline on this thread, so
  // the loop is serial — and, critically, it terminated.
  EXPECT_EQ(peak.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentShutdownCallersAllReturnAfterDrain) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&ran] {
      std::this_thread::yield();
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::vector<std::thread> closers;
  for (int t = 0; t < 4; ++t) {
    closers.emplace_back([&pool] { pool.Shutdown(); });
  }
  for (std::thread& t : closers) t.join();
  // Every Shutdown returned only after the queue drained and workers
  // joined, no matter which caller won the once-flag.
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, ShutdownStressNeverLosesOrDuplicatesTasks) {
  // TSan-targeted stress (the thread-sanitizer CI job runs this suite):
  // producers Submit and run nested ParallelFors while the main thread
  // shuts the pool down mid-storm. Every submitted task must run exactly
  // once — on a worker, inline after stop, or via caller participation —
  // and every ParallelFor must cover all indexes and return.
  for (int round = 0; round < 8; ++round) {
    ThreadPool pool(3);
    std::atomic<int> submitted{0};
    std::atomic<int> ran{0};
    std::atomic<int> pfor_sum{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> producers;
    for (int t = 0; t < 3; ++t) {
      producers.emplace_back([&, t] {
        while (!stop.load(std::memory_order_acquire)) {
          if (t == 0) {
            // Concurrent sessions shape: ParallelFor racing Shutdown.
            pool.ParallelFor(8, [&pfor_sum](int) {
              pfor_sum.fetch_add(1, std::memory_order_relaxed);
            });
          } else {
            submitted.fetch_add(1, std::memory_order_relaxed);
            pool.Submit([&ran] {
              ran.fetch_add(1, std::memory_order_relaxed);
            });
          }
          std::this_thread::yield();
        }
      });
    }
    // parqo-lint: allow(naked-sleep) let the storm race shutdown for 1ms
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    pool.Shutdown();  // concurrent with active Submit/ParallelFor
    stop.store(true, std::memory_order_release);
    for (std::thread& t : producers) t.join();
    EXPECT_EQ(ran.load(), submitted.load()) << "round " << round;
    EXPECT_EQ(pfor_sum.load() % 8, 0) << "round " << round;
  }
}

}  // namespace
}  // namespace parqo
