#include "src/util/thread_pool.h"

#include <algorithm>
#include <exception>

namespace rwl::util {
namespace {

// One ParallelFor call's tasks, guarded by its pool's mutex.
struct ForJob {
  const std::function<void(int)>& fn;
  int count;
  int next = 0;  // first unclaimed index
  int done = 0;  // tasks finished or skipped
  std::exception_ptr error;
};

// An outermost call's threads and the jobs they serve: its own first, then
// those of the nested calls its tasks make.
struct ForPool {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<ForJob*> jobs;
};

thread_local ForPool* current_pool = nullptr;

// Runs `job`'s next task with `lock` released.  A failed task skips the
// job's unclaimed tasks; the job's caller rethrows the failure.
void RunNext(ForPool& pool, ForJob& job, std::unique_lock<std::mutex>& lock) {
  const int i = job.next++;
  lock.unlock();
  std::exception_ptr error;
  try {
    job.fn(i);
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  if (error) {
    if (!job.error) job.error = error;
    job.done += job.count - job.next;
    job.next = job.count;
  }
  if (++job.done == job.count) pool.cv.notify_all();
}

// A pool thread's loop: run a task of the oldest job that has one left,
// until every task of the outer job is done.
void ServePool(ForPool& pool, ForJob& outer) {
  current_pool = &pool;
  std::unique_lock<std::mutex> lock(pool.mutex);
  while (outer.done < outer.count) {
    ForJob* open = nullptr;
    for (ForJob* job : pool.jobs) {
      if (job->next < job->count) {
        open = job;
        break;
      }
    }
    if (open != nullptr) {
      RunNext(pool, *open, lock);
    } else {
      pool.cv.wait(lock);
    }
  }
  current_pool = nullptr;
}

}  // namespace

void ParallelFor(int num_threads, int count,
                 const std::function<void(int)>& fn) {
  if (count <= 0) return;
  int threads = EffectiveThreads(num_threads, count);
  if (threads <= 1) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  ForJob job{fn, count};
  if (ForPool* outer = current_pool) {
    // Queue the tasks for the outer call's idle threads, run them here too
    // until none is left, then wait for those the others took.
    std::unique_lock<std::mutex> lock(outer->mutex);
    outer->jobs.push_back(&job);
    outer->cv.notify_all();
    while (job.next < job.count) RunNext(*outer, job, lock);
    outer->cv.wait(lock, [&] { return job.done == job.count; });
    outer->jobs.erase(std::find(outer->jobs.begin(), outer->jobs.end(), &job));
  } else {
    ForPool pool;
    pool.jobs.push_back(&job);
    std::vector<std::thread> workers;
    workers.reserve(threads - 1);
    for (int t = 1; t < threads; ++t) {
      workers.emplace_back([&] { ServePool(pool, job); });
    }
    ServePool(pool, job);
    for (auto& worker : workers) worker.join();
  }
  if (job.error) std::rethrow_exception(job.error);
}
}  // namespace rwl::util
