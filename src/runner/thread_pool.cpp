#include "runner/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace rise::runner {

namespace {

// Identifies the pool (and worker slot) the current thread belongs to, so
// submit() can detect nested submission and route it locally.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_worker = 0;

}  // namespace

std::size_t ThreadPool::hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t num_threads, std::size_t queue_capacity)
    : capacity_(std::max<std::size_t>(1, queue_capacity)) {
  const std::size_t n =
      num_threads == 0 ? hardware_threads() : num_threads;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::enqueue(Task task, bool bounded) {
  RISE_CHECK_MSG(task != nullptr, "ThreadPool: empty task");
  const bool nested = tl_pool == this;
  std::size_t target;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (bounded && !nested) {
      space_cv_.wait(lock,
                     [this] { return stopping_ || queued_ < capacity_; });
    }
    RISE_CHECK_MSG(!stopping_, "ThreadPool: submit after shutdown");
    ++queued_;
    ++in_flight_;
    target = nested ? tl_worker : rr_cursor_++ % workers_.size();
  }
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mu);
    workers_[target]->tasks.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::submit(Task task) { enqueue(std::move(task), true); }

bool ThreadPool::try_submit(Task task) {
  RISE_CHECK_MSG(task != nullptr, "ThreadPool: empty task");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || queued_ >= capacity_) return false;
  }
  // Between the check and enqueue() another submitter may take the slot;
  // enqueue(bounded=false) never blocks, so the capacity is exceeded by at
  // most the number of concurrent try_submit callers — an acceptable bound.
  enqueue(std::move(task), false);
  return true;
}

bool ThreadPool::pop_or_steal(std::size_t self, Task& out) {
  {
    Worker& own = *workers_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      out = std::move(own.tasks.back());
      own.tasks.pop_back();
      return true;
    }
  }
  const std::size_t n = workers_.size();
  for (std::size_t i = 1; i < n; ++i) {
    Worker& victim = *workers_[(self + i) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.tasks.empty()) {
      out = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      return true;
    }
  }
  return false;
}

bool ThreadPool::claimable_chunk() const {
  for (const ChunkBatch* b : batches_) {
    if (b->next < b->count) return true;
  }
  return false;
}

bool ThreadPool::run_one_chunk(std::unique_lock<std::mutex>& lock) {
  for (ChunkBatch* b : batches_) {
    if (b->next >= b->count) continue;
    const std::size_t i = b->next++;
    lock.unlock();
    b->fn(b->arg, i);
    lock.lock();
    // `b` stays valid: run_chunks only unregisters a batch after done ==
    // count, and this chunk's completion has not been counted yet.
    if (++b->done == b->count) batch_cv_.notify_all();
    return true;
  }
  return false;
}

void ThreadPool::run_chunks(std::size_t count, void (*fn)(void*, std::size_t),
                            void* arg) {
  RISE_CHECK_MSG(fn != nullptr, "ThreadPool: null chunk function");
  if (count == 0) return;
  if (count == 1) {  // nothing to share — skip the registration round-trip
    fn(arg, 0);
    return;
  }
  ChunkBatch batch{fn, arg, count};
  {
    std::lock_guard<std::mutex> lock(mu_);
    batches_.push_back(&batch);
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  // Claim chunks inline from our own batch. This guarantees progress no
  // matter what the workers are doing (they may all be parked inside
  // run_chunks calls of their own), which is what makes nested use
  // deadlock-free: worst case the caller runs every chunk itself.
  while (batch.next < batch.count) {
    const std::size_t i = batch.next++;
    lock.unlock();
    fn(arg, i);
    lock.lock();
    ++batch.done;
  }
  batch_cv_.wait(lock, [&batch] { return batch.done == batch.count; });
  batches_.erase(std::find(batches_.begin(), batches_.end(), &batch));
}

void ThreadPool::worker_loop(std::size_t self) {
  tl_pool = this;
  tl_worker = self;
  for (;;) {
    Task task;
    if (pop_or_steal(self, task)) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        --queued_;
      }
      space_cv_.notify_one();
      task();
      task = nullptr;  // release captures before reporting idle
      {
        std::lock_guard<std::mutex> lock(mu_);
        --in_flight_;
        if (in_flight_ == 0) idle_cv_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (run_one_chunk(lock)) continue;
    if (queued_ > 0) continue;  // lost a race with a concurrent submit
    if (stopping_) return;
    work_cv_.wait(lock, [this] {
      return queued_ > 0 || stopping_ || claimable_chunk();
    });
  }
}

void ThreadPool::wait_idle() {
  RISE_CHECK_MSG(tl_pool != this,
                 "ThreadPool: wait_idle from a worker would deadlock");
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void AdmissionGate::submit(ThreadPool::Task task) {
  if (limit_ == 0) {
    pool_.submit(std::move(task));
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return running_ < limit_; });
    ++running_;
  }
  pool_.submit([this, task = std::move(task)] {
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
    }
    cv_.notify_one();
  });
}

}  // namespace rise::runner
