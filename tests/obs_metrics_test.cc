// Tests for the metrics registry (src/obs/metrics): concurrent increments
// under a thread pool, histogram bucket edges, snapshot-while-writing safety,
// merging a diagnosis's snapshot, and JSON/text serialization.
//
// Each test writes into a private registry, so the counts the pipeline
// reports into the process-wide Global() never reach its assertions.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/thread_pool.h"
#include "tests/json_checker.h"

namespace aitia {
namespace obs {
namespace {

TEST(MetricsCounterTest, AddAndValue) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("test.counter.basic");
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42);
}

TEST(MetricsCounterTest, SameNameSameInstrument) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.GetCounter("test.counter.alias"), reg.GetCounter("test.counter.alias"));
  EXPECT_NE(reg.GetCounter("test.counter.alias"), reg.GetCounter("test.counter.other"));
}

TEST(MetricsCounterTest, ShardMergeUnderThreadPool) {
  // N threads x M increments of one counter must read exactly N*M, in the
  // counter and in a snapshot: no lost updates between concurrent writers.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("test.counter.sharded");
  {
    ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.Submit([c] {
        for (int i = 0; i < kPerThread; ++i) {
          c->Increment();
        }
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(c->Value(), int64_t{kThreads} * kPerThread);
  EXPECT_EQ(reg.Snapshot().counter("test.counter.sharded"), int64_t{kThreads} * kPerThread);
}

TEST(MetricsGaugeTest, SetAndAdd) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("test.gauge.basic");
  g->Set(7);
  EXPECT_EQ(g->Value(), 7);
  g->Add(-3);
  EXPECT_EQ(g->Value(), 4);
}

TEST(MetricsHistogramTest, BucketEdgesAreUpperBoundsInclusive) {
  // The registry's histogram and a diagnosis's snapshot bucket alike.
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("test.histo.edges", {10, 20});
  MetricsSnapshot recorded;
  // -5 is below everything (first bucket); 10 is on the edge, still the
  // first bucket (v <= 10); 21 is past the last bound (overflow).
  for (int64_t v : {-5, 0, 10, 11, 20, 21}) {
    h->Record(v);
    recorded.Record("test.histo.edges", {10, 20}, v);
  }
  for (const MetricsSnapshot& snap : {reg.Snapshot(), recorded}) {
    const HistogramSnapshot& hs = snap.histograms.at("test.histo.edges");
    ASSERT_EQ(hs.bounds, (std::vector<int64_t>{10, 20}));
    ASSERT_EQ(hs.buckets.size(), 3u);
    EXPECT_EQ(hs.buckets[0], 3);  // -5, 0, 10
    EXPECT_EQ(hs.buckets[1], 2);  // 11, 20
    EXPECT_EQ(hs.buckets[2], 1);  // 21
    EXPECT_EQ(hs.count, 6);
    EXPECT_EQ(hs.sum, -5 + 0 + 10 + 11 + 20 + 21);
  }
}

TEST(MetricsHistogramTest, FirstRegistrationBoundsWin) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("test.histo.bounds", {1, 2, 3});
  Histogram* again = reg.GetHistogram("test.histo.bounds", {100});
  EXPECT_EQ(h, again);
  EXPECT_EQ(again->bounds(), (std::vector<int64_t>{1, 2, 3}));
}

TEST(MetricsSnapshotTest, SnapshotWhileWritingIsSafeAndMonotone) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("test.counter.live");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([c, &done] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
      }
      done.store(true);
    });
  }
  // Snapshot continuously while writers run: every observed value must be
  // within range and non-decreasing (counters never go backward).
  int64_t last = 0;
  while (!done.load()) {
    const int64_t now = reg.Snapshot().counter("test.counter.live");
    EXPECT_GE(now, last);
    EXPECT_LE(now, int64_t{kThreads} * kPerThread);
    last = now;
  }
  for (std::thread& w : writers) {
    w.join();
  }
  EXPECT_EQ(c->Value(), int64_t{kThreads} * kPerThread);
}

// A diagnosis's snapshot is added to the registry, not copied over it:
// merging it twice doubles every count.
TEST(MetricsSnapshotTest, MergingTwiceDoublesEveryCount) {
  MetricsSnapshot snap;
  snap.counters["test.merge.counter"] += 5;
  snap.counters["test.merge.counter"] += 2;
  for (int64_t v : {3, 15, 99}) {
    snap.Record("test.merge.histo", {10, 20}, v);
    snap.Record("test.merge.other_bounds", {10, 20}, v);
  }
  MetricsRegistry reg;
  reg.GetHistogram("test.merge.other_bounds", {1});
  reg.Merge(snap);
  reg.Merge(snap);
  const MetricsSnapshot merged = reg.Snapshot();
  EXPECT_EQ(merged.counter("test.merge.counter"), 2 * 7);
  const HistogramSnapshot& h = merged.histograms.at("test.merge.histo");
  EXPECT_EQ(h.bounds, (std::vector<int64_t>{10, 20}));
  EXPECT_EQ(h.buckets, (std::vector<int64_t>{2, 2, 2}));
  EXPECT_EQ(h.count, 2 * 3);
  EXPECT_EQ(h.sum, 2 * (3 + 15 + 99));
  // Buckets under other bounds cannot be added; the registered ones stay.
  const HistogramSnapshot& other = merged.histograms.at("test.merge.other_bounds");
  EXPECT_EQ(other.bounds, (std::vector<int64_t>{1}));
  EXPECT_EQ(other.count, 0);
}

TEST(MetricsSnapshotTest, CounterLookupDefaultsToZero) {
  MetricsSnapshot empty;
  EXPECT_EQ(empty.counter("no.such.metric"), 0);
  EXPECT_TRUE(empty.empty());
}

TEST(MetricsSnapshotTest, ToJsonIsValidAndNested) {
  MetricsRegistry reg;
  reg.GetCounter("test.json.group.alpha")->Add(1);
  reg.GetCounter("test.json.group.beta")->Add(2);
  reg.GetGauge("test.json.level")->Set(-7);
  reg.GetHistogram("test.json.histo", {5})->Record(3);
  const std::string json = reg.Snapshot().ToJson();
  std::string why;
  EXPECT_TRUE(testing_json::IsValidJson(json, &why)) << why << "\n" << json;
  // Dotted names fold into nested objects.
  EXPECT_NE(json.find("\"group\": {\"alpha\": 1, \"beta\": 2}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bounds\": [5]"), std::string::npos) << json;
}

TEST(MetricsSnapshotTest, ToTextListsEveryInstrument) {
  MetricsRegistry reg;
  reg.GetCounter("test.text.counter")->Add(9);
  reg.GetHistogram("test.text.histo", {1})->Record(1);
  const std::string text = reg.Snapshot().ToText();
  EXPECT_NE(text.find("test.text.counter"), std::string::npos) << text;
  EXPECT_NE(text.find("test.text.histo"), std::string::npos) << text;
  EXPECT_EQ(MetricsSnapshot{}.ToText(), "(no metrics recorded)\n");
}

}  // namespace
}  // namespace obs
}  // namespace aitia
