#ifndef FLOQ_UTIL_THREAD_POOL_H_
#define FLOQ_UTIL_THREAD_POOL_H_

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"

// A small fixed-size thread pool: a task queue guarded by one mutex and a
// pair of condition variables, no external dependencies; deliberately not a
// work-stealing scheduler. Built for the batch-containment engine's fan-out
// of independent homomorphism searches, which are fine-grained: a surviving
// pair averages around a microsecond of search, less than one trip
// through the locked queue. ParallelFor therefore never queues a task per
// index — it queues one task per worker, and the workers claim fixed-size
// chunks of the index range from a shared atomic cursor.

namespace floq {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(size_t threads) {
    if (threads == 0) threads = 1;
    workers_.reserve(threads);
    for (size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this, i] { SpreadToCpu(i); WorkerLoop(); });
    }
  }

  /// Drains the queue, then joins the workers.
  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_.push(std::move(task));
      ++pending_;
      ++submitted_;
    }
    wake_.notify_one();
  }

  /// Tasks submitted over the pool's lifetime.
  size_t submitted() {
    std::unique_lock<std::mutex> lock(mutex_);
    return submitted_;
  }

  /// Blocks until every task submitted so far has finished executing.
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return pending_ == 0; });
  }

  /// std::thread::hardware_concurrency with a fallback for the platforms
  /// where it reports 0.
  static size_t DefaultThreads() {
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 4 : size_t(hw);
  }

 private:
  // Moves the calling worker once onto the index-th CPU it may run on, then
  // lifts the pin again. Without it, the workers of a fresh pool were seen
  // (4-vCPU VM, Linux 6.18) to be woken onto one CPU and stay there for a
  // whole 10-20 ms fan-out; with it, wakeups start from distinct CPUs.
  static void SpreadToCpu(size_t index) {
#ifdef __linux__
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    const int count = CPU_COUNT(&allowed);
    if (count <= 1) return;
    int skip = int(index % size_t(count));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof(one), &one) == 0) {
        sched_setaffinity(0, sizeof(allowed), &allowed);
      }
      return;
    }
#endif
  }

  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping, queue drained
        task = std::move(queue_.front());
        queue_.pop();
      }
      task();
      {
        std::unique_lock<std::mutex> lock(mutex_);
        --pending_;
        if (pending_ == 0) idle_.notify_all();
      }
    }
  }

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  size_t pending_ = 0;  // submitted but not yet finished
  size_t submitted_ = 0;
  bool stopping_ = false;
};

/// Runs fn(0) .. fn(count - 1) across the pool and blocks until all are
/// done. Submits min(pool.size(), count) tasks; each claims fixed-size
/// chunks of ascending indices from one atomic cursor until the range is
/// exhausted, so indices start in roughly ascending order (callers that
/// sort work cheapest-first keep that dispatch order). The caller must not
/// submit other work to `pool` concurrently — Wait() would observe it.
inline void ParallelFor(ThreadPool& pool, size_t count,
                        const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  const size_t tasks = std::min(pool.size(), count);
  // A chunk is ~1/32 of a worker's share and at most 32 indices: small
  // ranges claim one index at a time, which balances best, and on a
  // cost-sorted range one chunk stays a small slice of the expensive tail.
  const size_t chunk = std::clamp<size_t>(count / (tasks * 32), 1, 32);
  std::atomic<size_t> cursor{0};
  for (size_t t = 0; t < tasks; ++t) {
    pool.Submit([&cursor, &fn, count, chunk] {
      for (;;) {
        const size_t begin = cursor.fetch_add(chunk);
        if (begin >= count) return;
        const size_t end = std::min(begin + chunk, count);
        for (size_t i = begin; i < end; ++i) fn(i);
      }
    });
  }
  pool.Wait();
}

}  // namespace floq

#endif  // FLOQ_UTIL_THREAD_POOL_H_
