// Unit tests for src/util (rng, thread pool, strings, stopwatch, logging).

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "src/util/log.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace aitia {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowCoversTheRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.NextBelow(5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Chance(0, 10));
    EXPECT_TRUE(rng.Chance(10, 10));
  }
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(5);
  std::vector<int> v(20);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, DefaultsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.worker_count(), 1u);
}

TEST(StringsTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%05.1f", 2.5), "002.5");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

TEST(StringsTest, StrJoinHandlesEdgeCases) {
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"a"}, ","), "a");
  EXPECT_EQ(StrJoin({"a", "b", "c"}, " | "), "a | b | c");
}

TEST(StringsTest, PadRightPadsAndTruncates) {
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadRight("abcdef", 4), "abcd");
  EXPECT_EQ(PadRight("", 2), "  ");
}

TEST(LogTest, LevelGateIsRespected) {
  LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  AITIA_LOG(kDebug) << "suppressed";  // must not crash and not print
  SetLogLevel(old);
}

TEST(StopwatchTest, ElapsedIsMonotonic) {
  Stopwatch watch;
  double last = watch.ElapsedSeconds();
  EXPECT_GE(last, 0.0);
  for (int i = 0; i < 100; ++i) {
    const double now = watch.ElapsedSeconds();
    EXPECT_GE(now, last);
    last = now;
  }
}

TEST(StopwatchTest, ResetRestartsTheClock) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double before = watch.ElapsedSeconds();
  EXPECT_GT(before, 0.0);
  watch.Reset();
  EXPECT_LT(watch.ElapsedSeconds(), before);
}

TEST(StopwatchTest, MillisMatchSeconds) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double seconds = watch.ElapsedSeconds();
  const double millis = watch.ElapsedMillis();
  // Two separate now() calls: millis was taken after seconds.
  EXPECT_GE(millis, seconds * 1e3);
  EXPECT_LT(millis, (seconds + 1.0) * 1e3);
}

TEST(LogTest, ParseLogLevelAcceptsEveryLevel) {
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("info"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("warn"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("off"), LogLevel::kOff);
  EXPECT_FALSE(ParseLogLevel("").has_value());
  EXPECT_FALSE(ParseLogLevel("verbose").has_value());
  EXPECT_FALSE(ParseLogLevel("DEBUG").has_value());
}

TEST(LogTest, CurrentThreadTagIsStableAndDistinct) {
  const uint32_t mine = CurrentThreadTag();
  EXPECT_EQ(CurrentThreadTag(), mine);  // stable for the thread's lifetime
  std::vector<uint32_t> tags(8, 0);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < tags.size(); ++i) {
    threads.emplace_back([&tags, i] { tags[i] = CurrentThreadTag(); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  std::set<uint32_t> distinct(tags.begin(), tags.end());
  distinct.insert(mine);
  EXPECT_EQ(distinct.size(), tags.size() + 1);
}

TEST(LogTest, SinkReceivesPrefixedLines) {
  LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  std::vector<std::string> lines;
  SetLogSink([&lines](LogLevel, const std::string& line) { lines.push_back(line); });
  AITIA_LOG(kInfo) << "hello sink";
  AITIA_LOG(kDebug) << "below the gate";
  SetLogSink(nullptr);
  SetLogLevel(old);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("[INFO][T", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find("hello sink"), std::string::npos);
}

TEST(LogTest, ConcurrentLoggingKeepsLinesWhole) {
  LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  std::mutex mu;
  std::vector<std::string> lines;
  SetLogSink([&](LogLevel, const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  });
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  {
    ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.Submit([t] {
        for (int i = 0; i < kPerThread; ++i) {
          AITIA_LOG(kInfo) << "worker=" << t << " line=" << i << " end";
        }
      });
    }
    pool.Wait();
  }
  SetLogSink(nullptr);
  SetLogLevel(old);
  ASSERT_EQ(lines.size(), static_cast<size_t>(kThreads * kPerThread));
  for (const std::string& line : lines) {
    // Every line arrived whole: prefix present, single message, no splices.
    EXPECT_EQ(line.rfind("[INFO][T", 0), 0u) << line;
    EXPECT_NE(line.find(" end"), std::string::npos) << line;
    EXPECT_EQ(line.find("worker="), line.rfind("worker=")) << line;
  }
}

}  // namespace
}  // namespace aitia
