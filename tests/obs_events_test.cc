// Unit tests for the progress frame queue (src/obs/events.h) and the spans
// that stream into it (src/obs/trace.h): ordered delivery with sequence
// numbers, bounded oldest-first dropping, close-then-drain losslessness,
// concurrent pushers, one span feeding both the trace ring and the queue,
// and the NDJSON frame body shape.

#include "src/obs/events.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/trace.h"
#include "tests/json_checker.h"

namespace aitia {
namespace obs {
namespace {

DiagEvent Event(DiagPhase phase, const std::string& name) {
  DiagEvent e;
  e.phase = phase;
  e.name = name;
  return e;
}

TEST(DiagPhaseNameTest, WireTokensAreStable) {
  // These tokens are the streaming protocol; changing one breaks clients.
  EXPECT_STREQ(DiagPhaseName(DiagPhase::kQueued), "queued");
  EXPECT_STREQ(DiagPhaseName(DiagPhase::kStarted), "started");
  EXPECT_STREQ(DiagPhaseName(DiagPhase::kLifs), "lifs");
  EXPECT_STREQ(DiagPhaseName(DiagPhase::kSupervision), "supervision");
  EXPECT_STREQ(DiagPhaseName(DiagPhase::kFlipTested), "flip-tested");
  EXPECT_STREQ(DiagPhaseName(DiagPhase::kVerdict), "verdict");
  EXPECT_STREQ(DiagPhaseName(DiagPhase::kDone), "done");
}

TEST(FrameQueueTest, DeliversInOrderWithSequenceNumbers) {
  FrameQueue queue;
  queue.Push(Event(DiagPhase::kStarted, "a"));
  queue.Push(Event(DiagPhase::kLifs, "b"));
  queue.Push(Event(DiagPhase::kDone, "c"));

  for (int i = 0; i < 3; ++i) {
    auto e = queue.Next(1000);
    ASSERT_TRUE(e.has_value()) << i;
    EXPECT_EQ(e->seq, static_cast<uint64_t>(i));
    EXPECT_EQ(e->name, std::string(1, static_cast<char>('a' + i)));
  }
  EXPECT_EQ(queue.dropped(), 0);
}

TEST(FrameQueueTest, BoundedQueueDropsOldest) {
  FrameQueue queue(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    queue.Push(Event(DiagPhase::kLifs, "e" + std::to_string(i)));
  }
  // The four *newest* survive; the six oldest were evicted and counted.
  std::vector<std::string> names;
  while (auto e = queue.Next(0)) {
    names.push_back(e->name);
  }
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names.front(), "e6");
  EXPECT_EQ(names.back(), "e9");
  EXPECT_EQ(queue.dropped(), 6);
}

TEST(FrameQueueTest, CloseThenDrainIsLossless) {
  FrameQueue queue;
  queue.Push(Event(DiagPhase::kVerdict, "v1"));
  queue.Push(Event(DiagPhase::kDone, "d1"));
  queue.Close();
  EXPECT_TRUE(queue.closed());
  // Buffered frames still drain after Close()...
  ASSERT_TRUE(queue.Next(0).has_value());
  ASSERT_TRUE(queue.Next(0).has_value());
  EXPECT_FALSE(queue.Next(0).has_value());
  // ...but nothing new is enqueued.
  queue.Push(Event(DiagPhase::kDone, "late"));
  EXPECT_FALSE(queue.Next(10).has_value());
}

TEST(FrameQueueTest, NextWakesOnCloseFromAnotherThread) {
  FrameQueue queue;
  std::thread closer([&] { queue.Close(); });
  // A long-timeout Next must return promptly once the closer runs, instead
  // of sleeping out the full timeout.
  EXPECT_FALSE(queue.Next(30000).has_value());
  EXPECT_TRUE(queue.closed());
  closer.join();
}

TEST(FrameQueueTest, ConcurrentPushersSingleConsumer) {
  FrameQueue queue(/*capacity=*/4096);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> pushers;
  for (int t = 0; t < kThreads; ++t) {
    pushers.emplace_back([&queue, t] {
      for (int i = 0; i < kPerThread; ++i) {
        queue.Push(Event(DiagPhase::kLifs, std::to_string(t) + ":" + std::to_string(i)));
      }
    });
  }
  for (std::thread& p : pushers) {
    p.join();
  }
  queue.Close();
  uint64_t received = 0;
  while (auto e = queue.Next(0)) {
    EXPECT_EQ(e->seq, received);
    ++received;
  }
  EXPECT_EQ(received, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(queue.dropped(), 0);
}

// One span is one emission: with the tracer on and a queue set, it lands in
// the ring and, when it ends, as one frame whose detail joins its string
// args and whose counters are its int and bool args, in order.
TEST(StreamingSpanTest, OneSpanFeedsTheRingAndTheQueue) {
  Tracer::Global().Start(16);
  FrameQueue queue;
  {
    Span span("causality", "ca.verdict", 'i', DiagPhase::kVerdict, &queue);
    ASSERT_TRUE(span.active());
    span.Arg("index", 2)
        .Arg("label", "A1 => B1")
        .Arg("verdict", std::string("root-cause"))
        .Arg("phantom", false);
    EXPECT_FALSE(queue.Next(0).has_value()) << "a frame before the span ended";
  }
  const TraceDump dump = Tracer::Global().Snapshot();
  Tracer::Global().Stop();
  ASSERT_EQ(dump.events.size(), 1u);
  EXPECT_EQ(dump.events[0].name, "ca.verdict");
  EXPECT_EQ(dump.events[0].args.size(), 4u);

  auto e = queue.Next(0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->phase, DiagPhase::kVerdict);
  EXPECT_EQ(e->name, "ca.verdict");
  EXPECT_EQ(e->detail, "A1 => B1 root-cause");
  const std::vector<std::pair<std::string, int64_t>> counters = {{"index", 2}, {"phantom", 0}};
  EXPECT_EQ(e->counters, counters);
  EXPECT_FALSE(queue.Next(0).has_value());

  // With the tracer off and no queue, a span records nowhere, so the sites'
  // active() guards skip building their labels.
  EXPECT_FALSE(Span("lifs", "lifs.pass", 'i', DiagPhase::kLifs, nullptr).active());
}

TEST(DiagEventToJsonTest, FrameBodyShape) {
  DiagEvent e = Event(DiagPhase::kFlipTested, "ca.flip");
  e.seq = 42;
  e.detail = "race \"r1\"\nwith newline";
  e.counters = {{"index", 2}, {"total", 5}};
  const std::string json = DiagEventToJson(e);
  std::string why;
  EXPECT_TRUE(testing_json::IsValidJson(json, &why)) << why << "\n" << json;
  EXPECT_NE(json.find("\"phase\": \"flip-tested\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"seq\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"ca.flip\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\n"), std::string::npos) << json;  // detail escaped
  EXPECT_NE(json.find("\"total\": 5"), std::string::npos) << json;

  // detail/counters are omitted when empty, not emitted as "" / {}.
  const std::string bare = DiagEventToJson(Event(DiagPhase::kDone, "svc.done"));
  EXPECT_TRUE(testing_json::IsValidJson(bare, &why)) << why;
  EXPECT_EQ(bare.find("detail"), std::string::npos) << bare;
  EXPECT_EQ(bare.find("counters"), std::string::npos) << bare;
}

}  // namespace
}  // namespace obs
}  // namespace aitia
