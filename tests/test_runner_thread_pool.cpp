#include "runner/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <vector>

#include "support/check.hpp"

namespace rise::runner {
namespace {

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, ResultsLandInDistinctSlots) {
  // The campaign runner's pattern: each task owns one slot of a pre-sized
  // vector; wait_idle() must publish every write to the caller.
  constexpr int kTasks = 512;
  ThreadPool pool(8);
  std::vector<int> slots(kTasks, -1);
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&slots, i] { slots[static_cast<std::size_t>(i)] = i * i; });
  }
  pool.wait_idle();
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(slots[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ThreadPool, BoundedQueueStillCompletesEverything) {
  // Far more tasks than the queue holds: submit() must block and resume.
  ThreadPool pool(2, /*queue_capacity=*/4);
  std::atomic<int> count{0};
  for (int i = 0; i < 256; ++i) {
    pool.submit([&count] {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 256);
}

TEST(ThreadPool, NestedSubmitFromWorkerRuns) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&pool, &count] {
      count.fetch_add(1, std::memory_order_relaxed);
      pool.submit(
          [&count] { count.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, ReusableAfterWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { ++count; });
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, GracefulShutdownDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2, /*queue_capacity=*/256);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor = shutdown(): every already-queued task must still run.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), CheckError);
  EXPECT_FALSE(pool.try_submit([] {}));
}

TEST(ThreadPool, TrySubmitReportsFullQueue) {
  ThreadPool pool(1, /*queue_capacity=*/1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> started{false};
  pool.submit([&] {
    started = true;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  while (!started) std::this_thread::yield();  // blocker is now *executing*
  ASSERT_TRUE(pool.try_submit([] {}));         // fills the single queue slot
  EXPECT_FALSE(pool.try_submit([] {}));        // queue full
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.wait_idle();
  EXPECT_TRUE(pool.try_submit([] {}));
  pool.wait_idle();
}

TEST(ThreadPool, WorkIsStolenAcrossWorkers) {
  // One submitter round-robins tasks, but task 0 hogs its worker; the other
  // workers must steal the remaining tasks for the pool to finish quickly.
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> done{0};
  pool.submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  for (int i = 0; i < 64; ++i) {
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  // All 64 light tasks finish even while worker 0 is blocked.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (done.load() < 64) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.wait_idle();
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
  ThreadPool pool(0);  // 0 = hardware
  EXPECT_GE(pool.num_threads(), 1u);
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ManyMoreThreadsThanCoresWork) {
  ThreadPool pool(16);
  std::atomic<long> sum{0};
  for (long i = 1; i <= 200; ++i) {
    pool.submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 200L * 201L / 2);
}

// ---- run_chunks (the round-parallel chunk executor substrate) ----------

namespace {

/// Marks chunk i in a flags vector; run_chunks' contract is every index in
/// [0, count) exactly once.
struct ChunkFlags {
  explicit ChunkFlags(std::size_t count) : hits(count) {}
  static void mark(void* self, std::size_t i) {
    auto& flags = *static_cast<ChunkFlags*>(self);
    flags.hits[i].fetch_add(1, std::memory_order_relaxed);
  }
  std::vector<std::atomic<int>> hits;
};

}  // namespace

TEST(ThreadPoolChunks, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                            std::size_t{64}, std::size_t{1000}}) {
    ChunkFlags flags(count);
    pool.run_chunks(count, &ChunkFlags::mark, &flags);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(flags.hits[i].load(), 1) << "count=" << count << " i=" << i;
    }
  }
}

TEST(ThreadPoolChunks, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  ChunkFlags flags(128);
  pool.run_chunks(128, &ChunkFlags::mark, &flags);
  for (auto& h : flags.hits) EXPECT_EQ(h.load(), 1);
}

// The deadlock-freedom contract: a task already running ON the pool may
// call run_chunks. The caller claims chunks from its own batch inline, so
// it makes progress even when every worker (itself included) is occupied —
// worst case it runs the whole batch serially on its own thread.
TEST(ThreadPoolChunks, NestedCallFromWorkerDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int t = 0; t < 8; ++t) {
    pool.submit([&pool, &total] {
      ChunkFlags flags(50);
      pool.run_chunks(50, &ChunkFlags::mark, &flags);
      int sum = 0;
      for (auto& h : flags.hits) sum += h.load();
      total.fetch_add(sum, std::memory_order_relaxed);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(total.load(), 8 * 50);
}

// Every worker blocked on slow plain tasks: the run_chunks caller must not
// wait for a free worker, it inlines the batch itself.
TEST(ThreadPoolChunks, BusyPoolFallsBackToCallerInline) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  for (int t = 0; t < 2; ++t) {
    pool.submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });
  }
  ChunkFlags flags(64);
  pool.run_chunks(64, &ChunkFlags::mark, &flags);  // caller's thread only
  for (auto& h : flags.hits) EXPECT_EQ(h.load(), 1);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.wait_idle();
}

// Concurrent batches from independent threads must not cross wires: each
// caller waits for exactly its own batch.
TEST(ThreadPoolChunks, ConcurrentBatchesStayIndependent) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  std::vector<std::thread> callers;
  std::vector<int> sums(kCallers, 0);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &sums, c] {
      for (int round = 0; round < 20; ++round) {
        ChunkFlags flags(31);
        pool.run_chunks(31, &ChunkFlags::mark, &flags);
        for (auto& h : flags.hits) sums[static_cast<std::size_t>(c)] += h;
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(sums[c], 20 * 31);
}

TEST(ThreadPoolChunks, PoolChunkExecutorRunsInlineWithoutPool) {
  PoolChunkExecutor executor(nullptr);
  ChunkFlags flags(10);
  executor.run(10, &ChunkFlags::mark, &flags);
  for (auto& h : flags.hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolChunks, PoolChunkExecutorUsesPool) {
  ThreadPool pool(3);
  PoolChunkExecutor executor(&pool);
  ChunkFlags flags(200);
  executor.run(200, &ChunkFlags::mark, &flags);
  for (auto& h : flags.hits) EXPECT_EQ(h.load(), 1);
}

TEST(AdmissionGate, CapsConcurrentTasksAtTheLimit) {
  // The campaign / hunt shape with trial_jobs = 3: a pool of jobs x 3
  // threads, at most `jobs` tasks admitted at once, the rest of the pool
  // left for round chunks.
  constexpr std::size_t kJobs = 2;
  ThreadPool pool(kJobs * 3);
  AdmissionGate gate(pool, kJobs);
  std::mutex mu;
  std::size_t running = 0;
  std::size_t peak = 0;
  std::atomic<int> done{0};
  for (int i = 0; i < 60; ++i) {
    gate.submit([&] {
      {
        std::lock_guard<std::mutex> lock(mu);
        peak = std::max(peak, ++running);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      {
        std::lock_guard<std::mutex> lock(mu);
        --running;
      }
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 60);
  EXPECT_GE(peak, 1u);
  EXPECT_LE(peak, kJobs);
}

TEST(AdmissionGate, ZeroLimitSubmitsStraightToThePool) {
  ThreadPool pool(3);
  AdmissionGate gate(pool, 0);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    gate.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

}  // namespace
}  // namespace rise::runner
