// Work-stealing thread pool — the execution substrate of the campaign
// runner (src/runner/campaign.hpp).
//
// Design: each worker owns a deque protected by its own mutex. submit()
// round-robins tasks across the workers; a worker pops from the back of its
// own deque (LIFO, cache-friendly) and, when empty, steals from the front of
// a sibling's deque (FIFO, oldest first). The aggregate number of *queued*
// tasks is bounded: submit() from outside the pool blocks until a slot
// frees, which keeps campaign expansion memory-proportional to the bound
// rather than to the trial count. Submission from inside a worker (nested
// tasks) bypasses the bound and goes to the submitting worker's own deque —
// blocking there could deadlock the pool.
//
// Every piece of shared state is mutex-protected (no lock-free cleverness),
// so the pool is ThreadSanitizer-clean by construction; the tier-1 verify
// flow runs the runner tests under TSan (see CMake option RISE_SANITIZE).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/parallel.hpp"

namespace rise::runner {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  static constexpr std::size_t kDefaultCapacity = 4096;

  /// num_threads == 0 means hardware_threads().
  explicit ThreadPool(std::size_t num_threads = 0,
                      std::size_t queue_capacity = kDefaultCapacity);
  ~ThreadPool();  // graceful: drains every queued task, then joins

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Blocks while `queue_capacity` tasks are already
  /// queued (unless called from a pool worker; see file comment). Throws
  /// CheckError after shutdown().
  void submit(Task task);

  /// Non-blocking submit; false when the queue is full or stopping.
  bool try_submit(Task task);

  /// Blocks until every submitted task has finished. Must not be called
  /// from a pool worker. The pool remains usable afterwards.
  void wait_idle();

  /// Finishes all queued tasks, then stops and joins the workers.
  /// Idempotent; later submits throw.
  void shutdown();

  /// Runs fn(arg, i) once for every i in [0, count) and returns when all
  /// calls completed; idle workers help. Allocation-free in steady state
  /// (the batch lives on the caller's stack) and safe to call from *inside*
  /// a pool task: the caller claims chunks inline from its own batch, so
  /// even with every worker busy it simply runs the whole batch itself —
  /// nested use degrades to a serial loop, it can never deadlock. `fn` must
  /// not throw and must not block on this pool.
  void run_chunks(std::size_t count, void (*fn)(void*, std::size_t),
                  void* arg);

  std::size_t num_threads() const { return workers_.size(); }
  std::size_t queue_capacity() const { return capacity_; }

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t hardware_threads();

 private:
  struct Worker {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  /// One run_chunks call in progress. Lives on the caller's stack; the
  /// registered pointer and both counters are guarded by mu_.
  struct ChunkBatch {
    void (*fn)(void*, std::size_t);
    void* arg;
    std::size_t count;
    std::size_t next = 0;  ///< next unclaimed chunk index
    std::size_t done = 0;  ///< completed chunks
  };

  void worker_loop(std::size_t self);
  bool pop_or_steal(std::size_t self, Task& out);
  void enqueue(Task task, bool bounded);

  /// Claims and runs one chunk from the oldest batch with work left.
  /// Expects `lock` held on mu_ (dropped around the chunk body); returns
  /// false when no batch has an unclaimed chunk.
  bool run_one_chunk(std::unique_lock<std::mutex>& lock);
  bool claimable_chunk() const;  ///< under mu_

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;                  // guards the counters below
  std::condition_variable work_cv_;   // workers: wait for queued work
  std::condition_variable space_cv_;  // submitters: wait for queue space
  std::condition_variable idle_cv_;   // wait_idle
  std::condition_variable batch_cv_;  // run_chunks: wait for batch done
  std::vector<ChunkBatch*> batches_;  ///< active run_chunks calls
  std::size_t queued_ = 0;     ///< tasks sitting in some worker deque
  std::size_t in_flight_ = 0;  ///< queued + currently executing
  std::size_t rr_cursor_ = 0;  ///< round-robin submission target
  std::size_t capacity_;
  bool stopping_ = false;
};

/// Caps how many tasks submitted through it run (or wait queued) at once.
/// Campaign and hunt drivers size their pool at jobs x trial_jobs so every
/// running trial can fan its rounds out (ThreadPool::run_chunks); the gate
/// admits at most `limit` trials, leaving the spare threads to serve round
/// chunks. submit() blocks the caller until a slot frees; call it from
/// outside the pool and wait_idle() the pool before the gate goes away.
/// limit == 0 means no cap (a plain pool.submit).
class AdmissionGate {
 public:
  AdmissionGate(ThreadPool& pool, std::size_t limit)
      : pool_(pool), limit_(limit) {}

  void submit(ThreadPool::Task task);

 private:
  ThreadPool& pool_;
  std::size_t limit_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t running_ = 0;  ///< admitted tasks not yet finished; under mu_
};

/// Adapts the pool to the engine's executor interface (sim/parallel.hpp)
/// so a synchronous run can step round chunks on campaign workers. With a
/// null pool it degrades to an inline loop (same results — the engine's
/// parallel path is deterministic for any executor).
class PoolChunkExecutor final : public sim::ChunkExecutor {
 public:
  explicit PoolChunkExecutor(ThreadPool* pool) : pool_(pool) {}

  void run(std::size_t count, void (*fn)(void*, std::size_t),
           void* arg) override {
    if (pool_ != nullptr) {
      pool_->run_chunks(count, fn, arg);
    } else {
      for (std::size_t i = 0; i < count; ++i) fn(arg, i);
    }
  }

 private:
  ThreadPool* pool_;
};

}  // namespace rise::runner
