// Fixed-size worker pool that runs independent requests side by side: the
// daemon's diagnosis workers behind its bounded admission queue
// (src/svc/daemon.h) and aitia_sweep's scenario jobs. One diagnosis always
// runs on one thread; enforced runs cost microseconds here, so the
// parallelism that pays is across requests, not inside one (DESIGN.md §9).

#ifndef SRC_UTIL_THREAD_POOL_H_
#define SRC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace aitia {

class ThreadPool {
 public:
  // `workers == 0` picks the hardware concurrency (at least 1).
  // `queue_limit` bounds the number of *pending* (accepted but not yet
  // started) tasks; 0 leaves the queue unbounded.
  explicit ThreadPool(size_t workers = 0, size_t queue_limit = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task without blocking. Tasks must not throw. Returns true if
  // the task was accepted, and every accepted task is guaranteed to run.
  // Returns false — deterministically, without running the task — once
  // shutdown has begun or while `queue_limit` tasks are pending, so a flood
  // costs one mutex acquisition per refusal, never unbounded memory.
  bool Submit(std::function<void()> task);

  // Stops accepting new tasks, runs everything already accepted, and joins
  // the workers. Idempotent; called by the destructor. After Shutdown,
  // Submit rejects and Wait returns immediately.
  void Shutdown();

  // Blocks until every submitted task has finished.
  void Wait();

  size_t worker_count() const { return threads_.size(); }

  // Pending (accepted, not yet started) tasks; never more than `queue_limit`
  // when one is set. A worker may dequeue concurrently, so the value is a
  // snapshot.
  size_t pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tasks_.size();
  }

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::queue<std::function<void()>> tasks_;
  const size_t queue_limit_;  // 0 = unbounded
  size_t in_flight_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace aitia

#endif  // SRC_UTIL_THREAD_POOL_H_
