#include "src/util/thread_pool.h"

#include <utility>

namespace aitia {
namespace {

// 0 picks the hardware concurrency (at least 1); anything else passes through.
size_t ResolveWorkers(size_t workers) {
  if (workers != 0) {
    return workers;
  }
  const size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

ThreadPool::ThreadPool(size_t workers, size_t queue_limit) : queue_limit_(queue_limit) {
  workers = ResolveWorkers(workers);
  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && threads_.empty()) {
      return;  // already shut down
    }
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
  threads_.clear();
}

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Reject-after-stop keeps the run/reject decision deterministic: a task
    // either lands before shutdown (and will run during the drain) or is
    // refused here — it can never sit in the queue unexecuted. The bound
    // counts *pending* tasks only (what a worker has picked up is capacity
    // in use), and it is checked under the same lock as the push, so it is
    // exact, never approximate.
    if (stopping_ || (queue_limit_ > 0 && tasks_.size() >= queue_limit_)) {
      return false;
    }
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
  return true;
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // stopping_ and drained
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

}  // namespace aitia
