// Unit tests for the diagnosis progress event bus (src/obs/events.h):
// scoped delivery, bounded oldest-first dropping, close-then-drain
// losslessness, the publish fast path, and the NDJSON frame body shape.

#include "src/obs/events.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tests/json_checker.h"

namespace aitia {
namespace obs {
namespace {

DiagEvent Event(uint64_t scope, DiagPhase phase, const std::string& name) {
  DiagEvent e;
  e.scope = scope;
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

TEST(EventBusTest, DeliversInOrderWithSequenceNumbers) {
  EventBus bus;
  const uint64_t scope = EventBus::NextScope();
  auto sub = bus.Subscribe(scope);
  bus.Publish(Event(scope, DiagPhase::kStarted, "a"));
  bus.Publish(Event(scope, DiagPhase::kLifs, "b"));
  bus.Publish(Event(scope, DiagPhase::kDone, "c"));

  for (int i = 0; i < 3; ++i) {
    auto e = sub->Next(1000);
    ASSERT_TRUE(e.has_value()) << i;
    EXPECT_EQ(e->seq, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(sub->dropped(), 0);
  sub->Close();
}

TEST(EventBusTest, ScopeIsolation) {
  EventBus bus;
  const uint64_t a = EventBus::NextScope();
  const uint64_t b = EventBus::NextScope();
  auto sub_a = bus.Subscribe(a);
  auto sub_b = bus.Subscribe(b);
  bus.Publish(Event(a, DiagPhase::kStarted, "for-a"));
  bus.Publish(Event(b, DiagPhase::kStarted, "for-b"));
  bus.Publish(Event(0, DiagPhase::kStarted, "unscoped"));  // never delivered

  auto ea = sub_a->Next(1000);
  ASSERT_TRUE(ea.has_value());
  EXPECT_EQ(ea->name, "for-a");
  EXPECT_FALSE(sub_a->Next(10).has_value());  // nothing else for a

  auto eb = sub_b->Next(1000);
  ASSERT_TRUE(eb.has_value());
  EXPECT_EQ(eb->name, "for-b");
  sub_a->Close();
  sub_b->Close();
}

TEST(EventBusTest, BoundedQueueDropsOldest) {
  EventBus bus;
  const uint64_t scope = EventBus::NextScope();
  auto sub = bus.Subscribe(scope, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    bus.Publish(Event(scope, DiagPhase::kLifs, "e" + std::to_string(i)));
  }
  // The four *newest* survive; the six oldest were evicted and counted.
  std::vector<std::string> names;
  while (auto e = sub->Next(0)) {
    names.push_back(e->name);
  }
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names.front(), "e6");
  EXPECT_EQ(names.back(), "e9");
  EXPECT_EQ(sub->dropped(), 6);
  sub->Close();
}

TEST(EventBusTest, CloseThenDrainIsLossless) {
  EventBus bus;
  const uint64_t scope = EventBus::NextScope();
  auto sub = bus.Subscribe(scope);
  bus.Publish(Event(scope, DiagPhase::kVerdict, "v1"));
  bus.Publish(Event(scope, DiagPhase::kDone, "d1"));
  sub->Close();
  EXPECT_TRUE(sub->closed());
  // Buffered events still drain after Close()...
  ASSERT_TRUE(sub->Next(0).has_value());
  ASSERT_TRUE(sub->Next(0).has_value());
  EXPECT_FALSE(sub->Next(0).has_value());
  // ...but nothing new is enqueued.
  bus.Publish(Event(scope, DiagPhase::kDone, "late"));
  EXPECT_FALSE(sub->Next(10).has_value());
}

TEST(EventBusTest, NextWakesOnCloseFromAnotherThread) {
  EventBus bus;
  const uint64_t scope = EventBus::NextScope();
  auto sub = bus.Subscribe(scope);
  std::thread closer([&] { sub->Close(); });
  // A long-timeout Next must return promptly once the closer runs, instead
  // of sleeping out the full timeout.
  EXPECT_FALSE(sub->Next(30000).has_value());
  EXPECT_TRUE(sub->closed());
  closer.join();
}

TEST(EventBusTest, ActiveTracksSubscriptions) {
  EventBus bus;
  EXPECT_FALSE(bus.active());
  auto sub = bus.Subscribe(EventBus::NextScope());
  EXPECT_TRUE(bus.active());
  sub->Close();
  // Publishing after close compacts the dead subscription away.
  bus.Publish(Event(sub->scope(), DiagPhase::kDone, "x"));
  EXPECT_FALSE(bus.active());
}

TEST(EventBusTest, PublishWithNoSubscriberIsHarmless) {
  EventBus bus;
  for (int i = 0; i < 1000; ++i) {
    bus.Publish(Event(12345, DiagPhase::kLifs, "nobody-listening"));
  }
  EXPECT_FALSE(bus.active());
}

TEST(EventBusTest, NextScopeIsMonotonicAndNonzero) {
  const uint64_t a = EventBus::NextScope();
  const uint64_t b = EventBus::NextScope();
  EXPECT_NE(a, 0u);
  EXPECT_LT(a, b);
}

TEST(EventBusTest, ConcurrentPublishersSingleConsumer) {
  EventBus bus;
  const uint64_t scope = EventBus::NextScope();
  auto sub = bus.Subscribe(scope, /*capacity=*/4096);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> publishers;
  for (int t = 0; t < kThreads; ++t) {
    publishers.emplace_back([&bus, scope, t] {
      for (int i = 0; i < kPerThread; ++i) {
        bus.Publish(Event(scope, DiagPhase::kLifs,
                          std::to_string(t) + ":" + std::to_string(i)));
      }
    });
  }
  for (std::thread& p : publishers) {
    p.join();
  }
  sub->Close();
  int received = 0;
  uint64_t last_seq = 0;
  while (auto e = sub->Next(0)) {
    EXPECT_GE(e->seq, last_seq);
    last_seq = e->seq;
    ++received;
  }
  EXPECT_EQ(received, kThreads * kPerThread);
  EXPECT_EQ(sub->dropped(), 0);
}

TEST(PublishDiagEventTest, GlobalHelperRespectsScopeAndSubscribers) {
  // Scope 0 is "not publishing": even with a live subscription the helper
  // must not deliver anything.
  const uint64_t scope = EventBus::NextScope();
  auto sub = EventBus::Global().Subscribe(scope);
  PublishDiagEvent(0, DiagPhase::kStarted, "unscoped");
  PublishDiagEvent(scope, DiagPhase::kStarted, "svc.started", "detail-text",
                   {{"index", 1}, {"total", 3}});
  auto e = sub->Next(1000);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->name, "svc.started");
  EXPECT_EQ(e->detail, "detail-text");
  ASSERT_EQ(e->counters.size(), 2u);
  EXPECT_EQ(e->counters[0].first, "index");
  EXPECT_EQ(e->counters[1].second, 3);
  EXPECT_FALSE(sub->Next(10).has_value());
  sub->Close();
}

TEST(DiagEventToJsonTest, FrameBodyShape) {
  DiagEvent e = Event(7, DiagPhase::kFlipTested, "ca.flip");
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
  const std::string bare = DiagEventToJson(Event(7, DiagPhase::kDone, "svc.done"));
  EXPECT_TRUE(testing_json::IsValidJson(bare, &why)) << why;
  EXPECT_EQ(bare.find("detail"), std::string::npos) << bare;
  EXPECT_EQ(bare.find("counters"), std::string::npos) << bare;
}

}  // namespace
}  // namespace obs
}  // namespace aitia
