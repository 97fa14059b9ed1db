// Fixed-size worker pool that runs independent requests side by side: the
// daemon's diagnosis workers (src/svc/work_queue.h) and aitia_sweep's
// scenario jobs. One diagnosis always runs on one thread; enforced runs cost
// microseconds here, so the parallelism that pays is across requests, not
// inside one (DESIGN.md §9).

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
  // started) tasks that TrySubmit may add; 0 leaves TrySubmit unbounded.
  // Submit ignores the limit — it exists for admission-controlled callers.
  explicit ThreadPool(size_t workers = 0, size_t queue_limit = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Tasks must not throw. Returns true if the task was
  // accepted; returns false — deterministically, without running the task —
  // once shutdown has begun. Every accepted task is guaranteed to run.
  bool Submit(std::function<void()> task);

  // Non-blocking, admission-controlled Submit: additionally rejects when the
  // pool is saturated (`queue_limit` pending tasks are already waiting for a
  // worker). Same acceptance guarantee — true means the task will run, false
  // means it never will. This is the primitive load-shedding layers build
  // on: a rejected task costs one mutex acquisition, never unbounded memory.
  bool TrySubmit(std::function<void()> task);

  // Stops accepting new tasks, runs everything already accepted, and joins
  // the workers. Idempotent; called by the destructor. After Shutdown,
  // Submit rejects and Wait returns immediately.
  void Shutdown();

  // Blocks until every submitted task has finished.
  void Wait();

  size_t worker_count() const { return threads_.size(); }

  // Pending (accepted, not yet started) tasks. Inherently racy — a worker
  // may dequeue concurrently — so only meaningful to tests that control the
  // workers, hence the name.
  size_t QueueDepthForTest() {
    std::lock_guard<std::mutex> lock(mu_);
    return tasks_.size();
  }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::queue<std::function<void()>> tasks_;
  size_t queue_limit_ = 0;  // TrySubmit saturation bound; 0 = unbounded
  size_t in_flight_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace aitia

#endif  // SRC_UTIL_THREAD_POOL_H_
