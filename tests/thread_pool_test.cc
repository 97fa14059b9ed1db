// Shutdown-robustness regression tests for util::ThreadPool.
//
// The contract under test: every accepted task runs; a task submitted after
// shutdown begins is rejected deterministically (returns false, never runs);
// nothing can sit in the queue unexecuted.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/util/thread_pool.h"

namespace aitia {
namespace {

TEST(ThreadPoolShutdownTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
    }
  }  // destructor: accepted tasks must all run before join
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolShutdownTest, SubmitAfterShutdownIsRejected) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::atomic<int> counter{0};
  EXPECT_FALSE(pool.Submit([&counter] { counter.fetch_add(1); }));
  EXPECT_EQ(counter.load(), 0);
  pool.Wait();  // must not hang: the rejected task was never in flight
  pool.Shutdown();  // idempotent
  EXPECT_FALSE(pool.Submit([&counter] { counter.fetch_add(1); }));
  EXPECT_EQ(counter.load(), 0);
}

TEST(ThreadPoolShutdownTest, TasksSubmittedDuringShutdownRunOrReject) {
  // Tasks cascade re-submissions while the pool is torn down. Regardless of
  // where shutdown lands in the cascade, accepted == ran must hold — the
  // "either run or rejected" determinism this PR fixes.
  std::atomic<int> accepted{0};
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 32; ++i) {
      if (pool.Submit([&pool, &accepted, &ran] {
            ran.fetch_add(1);
            for (int j = 0; j < 4; ++j) {
              std::this_thread::sleep_for(std::chrono::microseconds(50));
              if (pool.Submit([&ran] { ran.fetch_add(1); })) {
                accepted.fetch_add(1);
              }
            }
          })) {
        accepted.fetch_add(1);
      }
    }
  }  // destructor races the cascade
  EXPECT_EQ(ran.load(), accepted.load());
}

TEST(ThreadPoolTrySubmitTest, AcceptedTasksRun) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2, /*queue_limit=*/1000);
    int accepted = 0;
    for (int i = 0; i < 100; ++i) {
      if (pool.TrySubmit([&counter] { counter.fetch_add(1); })) {
        ++accepted;
      }
    }
    EXPECT_EQ(accepted, 100);  // queue never saturates at this limit
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTrySubmitTest, RejectsWhenSaturated) {
  // One worker pinned on a gate, queue_limit 2: the first TrySubmit runs (or
  // queues), the next two fill the queue, the fourth must bounce — without
  // blocking the submitter.
  ThreadPool pool(1, /*queue_limit=*/2);
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.Submit([&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ran.fetch_add(1);
  }));
  // Wait until the worker has dequeued the gate task, so queue depth is 0.
  while (pool.QueueDepthForTest() != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EXPECT_TRUE(pool.TrySubmit([&ran] { ran.fetch_add(1); }));
  EXPECT_TRUE(pool.TrySubmit([&ran] { ran.fetch_add(1); }));
  std::atomic<int> never{0};
  EXPECT_FALSE(pool.TrySubmit([&never] { never.fetch_add(1); }));
  release.store(true);
  pool.Wait();
  EXPECT_EQ(ran.load(), 3);     // gate + the two accepted tasks
  EXPECT_EQ(never.load(), 0);   // the rejected task never runs
  // Capacity freed up again: the next TrySubmit is accepted.
  EXPECT_TRUE(pool.TrySubmit([&ran] { ran.fetch_add(1); }));
  pool.Wait();
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPoolTrySubmitTest, RejectedAfterShutdown) {
  ThreadPool pool(2, /*queue_limit=*/8);
  pool.Shutdown();
  std::atomic<int> counter{0};
  EXPECT_FALSE(pool.TrySubmit([&counter] { counter.fetch_add(1); }));
  EXPECT_EQ(counter.load(), 0);
}

TEST(ThreadPoolTrySubmitTest, ZeroLimitMeansUnbounded) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);  // default queue_limit = 0: TrySubmit never saturates
    for (int i = 0; i < 500; ++i) {
      EXPECT_TRUE(pool.TrySubmit([&counter] { counter.fetch_add(1); }));
    }
  }
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPoolShutdownTest, WaitAfterShutdownReturns) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Shutdown();
  pool.Wait();
  EXPECT_EQ(counter.load(), 8);
}

}  // namespace
}  // namespace aitia
