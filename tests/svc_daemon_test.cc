// In-process tests for the aitiad daemon core (src/svc/daemon.h): request
// lifecycle, crash isolation, admission control, cache idempotency, and
// drain semantics — everything ISSUE/DESIGN §11 promises, minus the sockets.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/bugs/registry.h"
#include "src/ingest/serialize.h"
#include "src/svc/daemon.h"
#include "src/svc/jsonv.h"
#include "src/util/strings.h"
#include "tests/json_checker.h"

namespace aitia {
namespace svc {
namespace {

// Parses a response line, asserting it is valid JSON with an object root.
JsonValue Parse(const std::string& line) {
  std::string why;
  EXPECT_TRUE(testing_json::IsValidJson(line, &why)) << why << "\n" << line;
  auto parsed = ParseJson(line);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
  return parsed.ok() ? std::move(parsed).value() : JsonValue();
}

std::string Field(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : "";
}

// An inline-.ait diagnose request for one of the hostile traces in
// tests/traces.
std::string HostileAitRequest(const char* file) {
  std::ifstream in(std::string(AITIA_HOSTILE_TRACE_DIR) + "/" + file);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_FALSE(text.str().empty()) << file;
  return R"({"verb":"diagnose","id":"x","ait":")" + JsonEscape(text.str()) + "\"}";
}

DaemonOptions SmallOptions() {
  DaemonOptions options;
  options.workers = 2;
  options.cache_capacity = 16;
  return options;
}

TEST(DaemonTest, DiagnosesCorpusScenarioById) {
  Daemon daemon(SmallOptions());
  const JsonValue doc =
      Parse(daemon.HandleLine(R"({"verb":"diagnose","id":"r1","scenario":"fig-1"})"));
  EXPECT_EQ(Field(doc, "id"), "r1");
  EXPECT_EQ(Field(doc, "verb"), "diagnose");
  EXPECT_EQ(Field(doc, "scenario"), "fig-1");
  EXPECT_EQ(Field(doc, "status"), "ok");
  ASSERT_NE(doc.Find("report"), nullptr);
  EXPECT_TRUE(doc.Find("report")->Find("diagnosed")->AsBool());
}

TEST(DaemonTest, DiagnosesInlineAitText) {
  Daemon daemon(SmallOptions());
  // A well-formed inline .ait (fig-1 through the canonical serializer)
  // diagnoses like its corpus twin — and, because the cache is keyed by the
  // canonical form, the corpus-id repeat is a cache hit.
  const std::string ait = ScenarioToAit(MakeScenario("fig-1"));
  const std::string request =
      std::string(R"({"verb":"diagnose","id":"inline","ait":)") +
      "\"" + JsonEscape(ait) + "\"}";
  const JsonValue doc = Parse(daemon.HandleLine(request));
  EXPECT_EQ(Field(doc, "id"), "inline");
  EXPECT_EQ(Field(doc, "status"), "ok");
  EXPECT_EQ(Field(doc, "cache"), "miss");
  const JsonValue twin =
      Parse(daemon.HandleLine(R"({"verb":"diagnose","id":"twin","scenario":"fig-1"})"));
  EXPECT_EQ(Field(twin, "cache"), "hit");
  EXPECT_EQ(Field(twin, "status"), "ok");

  // A malformed fragment is a structured invalid_argument, never an abort.
  const JsonValue bad = Parse(
      daemon.HandleLine(R"({"verb":"diagnose","id":"bad-ait","ait":"not an .ait file"})"));
  EXPECT_EQ(Field(bad, "status"), "invalid_argument");
  EXPECT_EQ(Field(bad, "id"), "bad-ait");
  EXPECT_FALSE(Field(bad, "error").empty());
}

TEST(DaemonTest, CacheHitOnRepeatAndIdempotentReport) {
  Daemon daemon(SmallOptions());
  const JsonValue first =
      Parse(daemon.HandleLine(R"({"verb":"diagnose","id":"a","scenario":"fig-1"})"));
  const JsonValue second =
      Parse(daemon.HandleLine(R"({"verb":"diagnose","id":"b","scenario":"fig-1"})"));
  EXPECT_EQ(Field(first, "cache"), "miss");
  EXPECT_EQ(Field(second, "cache"), "hit");
  EXPECT_EQ(Field(second, "id"), "b");  // ids are per-request, not cached
  EXPECT_EQ(Field(first, "status"), Field(second, "status"));
  // no_cache opts out of the read path.
  const JsonValue third = Parse(daemon.HandleLine(
      R"({"verb":"diagnose","id":"c","scenario":"fig-1","no_cache":true})"));
  EXPECT_EQ(Field(third, "cache"), "miss");
}

TEST(DaemonTest, CrashIsolationMalformedInputsThenSuccess) {
  Daemon daemon(SmallOptions());
  // A hostile parade: every one must yield a structured error response...
  const std::string hostile[] = {
      "{not json",
      "[1,2,3]",
      "\"just a string\"",
      R"({"verb":"frobnicate","id":"x"})",
      R"({"verb":"diagnose","id":"x"})",
      R"({"verb":"diagnose","id":"x","scenario":"no-such-bug"})",
      R"({"verb":"diagnose","id":"x","ait":"trace { garbage"})",
      R"({"verb":"diagnose","id":"x","scenario":"fig-1","ait":"both set"})",
      R"({"id":"x"})",
  };
  for (const std::string& line : hostile) {
    const JsonValue doc = Parse(daemon.HandleLine(line));
    const std::string status = Field(doc, "status");
    EXPECT_TRUE(status == "invalid_argument" || status == "not_found")
        << line << " -> " << status;
    EXPECT_FALSE(Field(doc, "error").empty()) << line;
  }
  // Valid .ait whose setup phase faults, never exits or blocks on a lock, or
  // that asks kmalloc for 2^63 - 1 cells: each is an input error.
  for (const char* file :
       {"setup_fault.ait", "setup_spin.ait", "setup_lock.ait", "huge_alloc.ait"}) {
    const JsonValue doc = Parse(daemon.HandleLine(HostileAitRequest(file)));
    EXPECT_EQ(Field(doc, "status"), "invalid_argument") << file;
    EXPECT_FALSE(Field(doc, "error").empty()) << file;
  }
  // A label after a program's last instruction binds to the implicit exit:
  // a clean non-reproduction, never an abort. A failure one thread causes on
  // its own reproduces, but no race flip prevents it: not a diagnosis.
  for (const char* file : {"trailing_label.ait", "self_deadlock.ait", "ref_underflow.ait"}) {
    EXPECT_EQ(Field(Parse(daemon.HandleLine(HostileAitRequest(file))), "status"),
              "not_reproduced")
        << file;
  }
  // ...and the daemon must still serve real work afterwards.
  const JsonValue doc =
      Parse(daemon.HandleLine(R"({"verb":"diagnose","id":"after","scenario":"fig-1"})"));
  EXPECT_EQ(Field(doc, "status"), "ok");
}

TEST(DaemonTest, OversizedRequestRejectedBeforeParsing) {
  Daemon daemon(SmallOptions());
  const std::string big =
      R"({"verb":"diagnose","scenario":")" + std::string(kMaxRequestBytes, 'x') + "\"}";
  const JsonValue doc = Parse(daemon.HandleLine(big));
  EXPECT_EQ(Field(doc, "status"), "invalid_argument");
}

TEST(DaemonTest, TinyDeadlineDegradesInsteadOfHanging) {
  DaemonOptions options = SmallOptions();
  options.cache_capacity = 0;
  Daemon daemon(options);
  // 1ms budget on a corpus scenario: the supervisor must cut the run short
  // and return a degraded (or, if it squeaked through, terminal) response.
  const JsonValue doc = Parse(daemon.HandleLine(
      R"({"verb":"diagnose","id":"t1","scenario":"CVE-2017-15649","deadline_ms":1})"));
  const std::string status = Field(doc, "status");
  EXPECT_TRUE(status == "degraded" || status == "ok" || status == "not_reproduced")
      << status;
  // The worker is free again.
  EXPECT_EQ(Field(Parse(daemon.HandleLine(R"({"verb":"ping","id":"t2"})")), "status"),
            "ok");
}

TEST(DaemonTest, HugeDeadlineClampsToTheCeiling) {
  DaemonOptions options = SmallOptions();
  options.cache_capacity = 0;
  Daemon daemon(options);
  // A deadline far past int64_t's range must clamp to the ceiling, not wrap
  // to a 1 ms budget that degrades the request.
  const JsonValue doc = Parse(daemon.HandleLine(
      R"({"verb":"diagnose","id":"h","scenario":"CVE-2017-15649","deadline_ms":1e300})"));
  EXPECT_EQ(Field(doc, "status"), "ok");
}

// Async submission helper: collects one response, with a latch.
struct Capture {
  std::mutex mu;
  std::condition_variable cv;
  std::string response;
  bool done = false;

  Daemon::Responder responder() {
    return [this](std::string r) {
      std::lock_guard<std::mutex> lock(mu);
      response = std::move(r);
      done = true;
      cv.notify_all();
    };
  }
  std::string Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return done; });
    return response;
  }
};

TEST(DaemonTest, DeterministicOverloadWhenQueueFull) {
  DaemonOptions options = SmallOptions();
  options.workers = 1;
  options.cache_capacity = 0;
  Daemon daemon(options);

  // A pins the single worker via hold_ms; kQueueCapacity more requests fill
  // every queue slot; the next one must be shed with the retry hint —
  // deterministically.
  Capture a;
  daemon.Submit(R"({"verb":"diagnose","id":"A","scenario":"fig-1","hold_ms":800})",
                a.responder());
  while (daemon.in_flight() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const char* scenarios[] = {"fig-1", "fig-5", "fig-7"};
  std::vector<std::unique_ptr<Capture>> queued;
  for (size_t i = 0; i < kQueueCapacity; ++i) {
    queued.push_back(std::make_unique<Capture>());
    daemon.Submit(StrFormat(R"({"verb":"diagnose","id":"B%zu","scenario":"%s"})", i,
                            scenarios[i % 3]),
                  queued.back()->responder());
  }
  EXPECT_EQ(daemon.queue_depth(), kQueueCapacity);
  Capture c;
  daemon.Submit(R"({"verb":"diagnose","id":"C","scenario":"fig-7"})", c.responder());

  const JsonValue rc = Parse(c.Wait());  // C answers immediately
  EXPECT_EQ(Field(rc, "id"), "C");
  EXPECT_EQ(Field(rc, "status"), "overloaded");
  ASSERT_NE(rc.Find("retry_after_ms"), nullptr);
  EXPECT_EQ(rc.Find("retry_after_ms")->AsInt(), kRetryAfterMs);

  const JsonValue ra = Parse(a.Wait());
  EXPECT_EQ(Field(ra, "id"), "A");
  EXPECT_EQ(Field(ra, "status"), "ok");
  for (size_t i = 0; i < kQueueCapacity; ++i) {  // accepted: each must complete
    const JsonValue rb = Parse(queued[i]->Wait());
    EXPECT_EQ(Field(rb, "id"), StrFormat("B%zu", i));
    EXPECT_EQ(Field(rb, "status"), "ok");
  }
}

TEST(DaemonTest, DrainRejectsNewButFinishesInFlight) {
  DaemonOptions options = SmallOptions();
  options.workers = 1;
  options.cache_capacity = 0;
  options.drain_grace_ms = 5000;
  Daemon daemon(options);

  Capture in_flight;
  daemon.Submit(R"({"verb":"diagnose","id":"in","scenario":"fig-1","hold_ms":300})",
                in_flight.responder());
  while (daemon.in_flight() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon.BeginDrain();
  // New work is rejected with "draining" while the old request still runs.
  const JsonValue rejected =
      Parse(daemon.HandleLine(R"({"verb":"diagnose","id":"new","scenario":"fig-5"})"));
  EXPECT_EQ(Field(rejected, "status"), "draining");
  daemon.Drain();
  const JsonValue finished = Parse(in_flight.Wait());
  EXPECT_EQ(Field(finished, "id"), "in");
  EXPECT_EQ(Field(finished, "status"), "ok");  // grace let it finish naturally
  // Post-drain submissions still get exactly one (rejection) response.
  const JsonValue after =
      Parse(daemon.HandleLine(R"({"verb":"diagnose","id":"late","scenario":"fig-1"})"));
  EXPECT_EQ(Field(after, "status"), "draining");
}

TEST(DaemonTest, HardDrainCancelsHeldWork) {
  DaemonOptions options = SmallOptions();
  options.workers = 1;
  options.cache_capacity = 0;
  options.drain_grace_ms = 20;  // too short for the hold: must hard-cancel
  Daemon daemon(options);
  Capture held;
  daemon.Submit(R"({"verb":"diagnose","id":"h","scenario":"fig-1","hold_ms":5000})",
                held.responder());
  while (daemon.in_flight() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon.Drain();  // must not take anywhere near 5s (ctest timeout enforces)
  const JsonValue doc = Parse(held.Wait());
  EXPECT_EQ(Field(doc, "id"), "h");
  // The hold ends only once the hard drain is armed, so the cancel probe
  // fires as the diagnosis starts: degraded with a partial report, never
  // lost.
  EXPECT_EQ(Field(doc, "status"), "degraded");
  EXPECT_NE(doc.Find("report"), nullptr);
}

TEST(DaemonTest, VerbsPingMetricsShutdown) {
  DaemonOptions options = SmallOptions();
  std::atomic<int> shutdown_callbacks{0};
  options.on_shutdown_request = [&shutdown_callbacks] {
    shutdown_callbacks.fetch_add(1);
  };
  Daemon daemon(options);
  EXPECT_EQ(Field(Parse(daemon.HandleLine(R"({"verb":"ping","id":1})")), "id"), "1");

  const JsonValue metrics = Parse(daemon.HandleLine(R"({"verb":"metrics"})"));
  EXPECT_EQ(Field(metrics, "status"), "ok");
  const JsonValue* m = metrics.Find("metrics");
  ASSERT_NE(m, nullptr);
  ASSERT_NE(m->Find("svc"), nullptr);
  EXPECT_NE(m->Find("svc")->Find("requests"), nullptr);

  EXPECT_FALSE(daemon.shutdown_requested());
  const JsonValue bye = Parse(daemon.HandleLine(R"({"verb":"shutdown","id":"s"})"));
  EXPECT_EQ(Field(bye, "status"), "ok");
  EXPECT_TRUE(daemon.shutdown_requested());
  EXPECT_EQ(shutdown_callbacks.load(), 1);
  daemon.HandleLine(R"({"verb":"shutdown","id":"s2"})");  // idempotent
  EXPECT_EQ(shutdown_callbacks.load(), 1);
}

TEST(DaemonTest, MetricsJsonIsValid) {
  std::string why;
  EXPECT_TRUE(testing_json::IsValidJson(Daemon::MetricsJson(), &why)) << why;
}

TEST(DaemonTest, ConcurrentMixedLoadEveryRequestAnsweredOnce) {
  DaemonOptions options = SmallOptions();
  options.workers = 4;
  Daemon daemon(options);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<int> responses{0};
  std::atomic<int> empty_or_invalid{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const char* scenarios[] = {"fig-1", "fig-5", "fig-7", "no-such", "{bad"};
      for (int i = 0; i < kPerThread; ++i) {
        std::string line;
        const char* s = scenarios[(t + i) % 5];
        if (s[0] == '{') {
          line = "{malformed";
        } else {
          line = std::string(R"({"verb":"diagnose","scenario":")") + s + "\"}";
        }
        const std::string response = daemon.HandleLine(line);
        if (response.empty() || !ParseJson(response).ok()) {
          empty_or_invalid.fetch_add(1);
        }
        responses.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(responses.load(), kThreads * kPerThread);
  EXPECT_EQ(empty_or_invalid.load(), 0);
  daemon.Drain();
}

}  // namespace
}  // namespace svc
}  // namespace aitia
