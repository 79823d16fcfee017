// Worker pools for parallel sweeps and the long-lived service layer.
//
// ParallelFor: the limit-sweep evaluator (engines/engine.cc) computes
// Pr_N^τ at every point of an (N, τ-scale) grid; the points are
// independent, so they are farmed out to a transient pool and the serial
// convergence reduction runs over the precomputed grid afterwards.  The
// pool is deliberately minimal: spawn, drain a shared work counter, join.
// Exceptions in a task are caught and rethrown on Run's caller thread.
// A ParallelFor called from inside another's task spawns no threads: a
// pooled sweep whose points shard their own work (the exact and
// Monte-Carlo engines) runs those shards on the sweep's threads, which
// take them up once no grid point is left to start.
//
// WorkerPool: a persistent pool for the query scheduler
// (service/scheduler.h) — tasks are submitted continuously over the
// process lifetime instead of batched, so the threads are spawned once
// and parked on a condition variable between tasks.
//
// WaitWithTimeout: the service layer's bounded condition waits.
#ifndef RWL_UTIL_THREAD_POOL_H_
#define RWL_UTIL_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rwl::util {

// Number of workers to use for `count` independent tasks when the caller
// requested `requested` threads (0 = one per hardware thread).
inline int EffectiveThreads(int requested, int count) {
  int threads = requested > 0
                    ? requested
                    : static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  if (threads > count) threads = count;
  return threads;
}

// Runs fn(0) .. fn(count-1) on up to `num_threads` workers (0 = auto).
// Blocks until every task has finished.  With a single worker the tasks run
// inline on the calling thread, in index order.  A call made from inside a
// task spawns no threads: it queues its tasks for the outer call's threads,
// which take them up once the outer tasks are all claimed, and the caller
// runs them too until none is left.
void ParallelFor(int num_threads, int count,
                 const std::function<void(int)>& fn);

// Waits on `cv` (holding `lock`) until `ready()` holds; a negative
// `timeout_ms` waits forever.  Returns ready()'s value when the wait ends.
template <typename Ready>
bool WaitWithTimeout(std::condition_variable& cv,
                     std::unique_lock<std::mutex>& lock, double timeout_ms,
                     Ready ready) {
  if (timeout_ms >= 0) {
    return cv.wait_for(
        lock, std::chrono::duration<double, std::milli>(timeout_ms), ready);
  }
  cv.wait(lock, ready);
  return true;
}

// A persistent FIFO worker pool.  Submit() never blocks; the destructor
// drains every queued task before joining (submitters that must observe
// completion wait on their own promise/future — see service/service.cc).
// Tasks must not throw: the service layer converts failures into error
// responses before they reach the pool.
class WorkerPool {
 public:
  explicit WorkerPool(int num_threads) {
    int threads = num_threads > 0
                      ? num_threads
                      : static_cast<int>(std::thread::hardware_concurrency());
    if (threads < 1) threads = 1;
    workers_.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    wake_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      tasks_.push_back(std::move(task));
    }
    wake_.notify_one();
  }

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
        if (tasks_.empty()) return;  // shutdown with a drained queue
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> tasks_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace rwl::util

#endif  // RWL_UTIL_THREAD_POOL_H_
