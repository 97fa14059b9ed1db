// Streaming-protocol tests for the daemon (src/svc/daemon.h): NDJSON
// progress frames arrive strictly before the exactly-once terminal response,
// frames carry the request id and a well-formed event body, per-request
// scopes never cross-talk under concurrency, and a sink that goes away
// mid-stream degrades the stream — never the daemon.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/svc/daemon.h"
#include "src/svc/jsonv.h"
#include "tests/json_checker.h"

namespace aitia {
namespace svc {
namespace {

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

DaemonOptions SmallOptions() {
  DaemonOptions options;
  options.workers = 2;
  options.cache_capacity = 16;
  return options;
}

// Collects one request's frames and terminal with the ordering recorded.
// Declare it before the Daemon that feeds it: the daemon's destructor drains
// its workers, which may still be inside a sink after the terminal arrived.
struct StreamLog {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> frames;
  std::vector<std::string> terminals;
  bool terminal_after_frame_gap = false;  // a frame arrived after the terminal

  Daemon::Responder FrameSink() {
    return [this](std::string line) {
      std::lock_guard<std::mutex> lock(mu);
      if (!terminals.empty()) {
        terminal_after_frame_gap = true;
      }
      frames.push_back(std::move(line));
    };
  }
  Daemon::Responder TerminalSink() {
    return [this](std::string line) {
      {
        std::lock_guard<std::mutex> lock(mu);
        terminals.push_back(std::move(line));
      }
      cv.notify_all();
    };
  }
  void WaitTerminal() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return !terminals.empty(); });
  }
};

int64_t DuplicateResponses() {
  return obs::MetricsRegistry::Global().Snapshot().counter("svc.duplicate_responses");
}

TEST(SvcStreamTest, FramesThenExactlyOneTerminal) {
  const int64_t dups_before = DuplicateResponses();
  StreamLog log;
  Daemon daemon(SmallOptions());
  daemon.Submit(R"({"verb":"diagnose","id":"s1","scenario":"fig-1","stream":true})",
                log.TerminalSink(), log.FrameSink());
  log.WaitTerminal();
  daemon.Drain();  // all relay pumps joined; frame vector is final

  std::lock_guard<std::mutex> lock(log.mu);
  ASSERT_EQ(log.terminals.size(), 1u);
  EXPECT_FALSE(log.terminal_after_frame_gap) << "frame delivered after the terminal";
  ASSERT_FALSE(log.frames.empty()) << "streamed diagnose produced no progress frames";

  // The terminal is a normal diagnose response with no "event" key.
  const JsonValue terminal = Parse(log.terminals[0]);
  EXPECT_EQ(Field(terminal, "id"), "s1");
  EXPECT_EQ(Field(terminal, "status"), "ok");
  EXPECT_EQ(terminal.Find("event"), nullptr);
  EXPECT_NE(terminal.Find("report"), nullptr);

  // Every frame: {"id":"s1","event":{"phase":...,"seq":N,...}}, seq strictly
  // increasing, starting at the admission-side "queued" and ending "done".
  std::vector<std::string> phases;
  int64_t last_seq = -1;
  for (const std::string& line : log.frames) {
    const JsonValue frame = Parse(line);
    EXPECT_EQ(Field(frame, "id"), "s1") << line;
    const JsonValue* event = frame.Find("event");
    ASSERT_NE(event, nullptr) << line;
    EXPECT_EQ(frame.Find("report"), nullptr) << "frames never carry a report";
    const int64_t seq = event->Find("seq") != nullptr ? event->Find("seq")->AsInt() : -1;
    EXPECT_GT(seq, last_seq) << line;
    last_seq = seq;
    phases.push_back(Field(*event, "phase"));
  }
  EXPECT_EQ(phases.front(), "queued");
  EXPECT_EQ(phases.back(), "done");
  // The worker lifecycle showed up in between.
  EXPECT_NE(std::find(phases.begin(), phases.end(), "started"), phases.end());
  EXPECT_NE(std::find(phases.begin(), phases.end(), "verdict"), phases.end());
  EXPECT_EQ(DuplicateResponses(), dups_before);
}

TEST(SvcStreamTest, NoStreamFieldMeansNoFrames) {
  StreamLog log;
  Daemon daemon(SmallOptions());
  daemon.Submit(R"({"verb":"diagnose","id":"p1","scenario":"fig-1"})", log.TerminalSink(),
                log.FrameSink());
  log.WaitTerminal();
  daemon.Drain();
  std::lock_guard<std::mutex> lock(log.mu);
  EXPECT_TRUE(log.frames.empty());
  ASSERT_EQ(log.terminals.size(), 1u);
  EXPECT_EQ(Field(Parse(log.terminals[0]), "status"), "ok");
}

TEST(SvcStreamTest, NullStreamSinkDowngradesToPlainRequest) {
  StreamLog log;
  Daemon daemon(SmallOptions());
  // "stream": true but no sink (old transport): still exactly one terminal.
  daemon.Submit(R"({"verb":"diagnose","id":"d1","scenario":"fig-1","stream":true})",
                log.TerminalSink());
  log.WaitTerminal();
  std::lock_guard<std::mutex> lock(log.mu);
  ASSERT_EQ(log.terminals.size(), 1u);
  EXPECT_EQ(Field(Parse(log.terminals[0]), "status"), "ok");
}

TEST(SvcStreamTest, CacheHitStillStreamsLifecycle) {
  StreamLog warm;
  StreamLog log;
  Daemon daemon(SmallOptions());
  // Warm the cache un-streamed.
  daemon.Submit(R"({"verb":"diagnose","id":"w","scenario":"fig-1"})", warm.TerminalSink());
  warm.WaitTerminal();

  daemon.Submit(R"({"verb":"diagnose","id":"hit","scenario":"fig-1","stream":true})",
                log.TerminalSink(), log.FrameSink());
  log.WaitTerminal();
  daemon.Drain();

  std::lock_guard<std::mutex> lock(log.mu);
  ASSERT_EQ(log.terminals.size(), 1u);
  const JsonValue terminal = Parse(log.terminals[0]);
  EXPECT_EQ(Field(terminal, "cache"), "hit");
  // A cache hit still announces itself: queued, then done (no pipeline
  // phases — the report came from the cache).
  ASSERT_FALSE(log.frames.empty());
  const JsonValue last = Parse(log.frames.back());
  ASSERT_NE(last.Find("event"), nullptr);
  EXPECT_EQ(Field(*last.Find("event"), "phase"), "done");
}

TEST(SvcStreamTest, HandleLineDeliversFramesBeforeReturning) {
  Daemon daemon(SmallOptions());
  std::vector<std::string> frames;  // HandleLine is synchronous; no lock needed
  const std::string response = daemon.HandleLine(
      R"({"verb":"diagnose","id":"once","scenario":"fig-1","stream":true})",
      [&frames](std::string line) { frames.push_back(std::move(line)); });
  EXPECT_EQ(Field(Parse(response), "status"), "ok");
  ASSERT_FALSE(frames.empty());
  for (const std::string& line : frames) {
    EXPECT_EQ(Field(Parse(line), "id"), "once");
  }
}

TEST(SvcStreamTest, ConcurrentStreamsNeverCrossTalk) {
  const int64_t dups_before = DuplicateResponses();
  DaemonOptions options = SmallOptions();
  options.workers = 4;
  options.cache_capacity = 0;  // every request runs the pipeline
  constexpr int kRequests = 8;
  std::vector<std::unique_ptr<StreamLog>> logs;
  for (int i = 0; i < kRequests; ++i) {
    logs.push_back(std::make_unique<StreamLog>());
  }
  Daemon daemon(options);

  for (int i = 0; i < kRequests; ++i) {
    const std::string id = "c" + std::to_string(i);
    daemon.Submit(R"({"verb":"diagnose","id":")" + id +
                      R"(","scenario":"fig-1","stream":true,"no_cache":true})",
                  logs[i]->TerminalSink(), logs[i]->FrameSink());
  }
  for (auto& log : logs) {
    log->WaitTerminal();
  }
  daemon.Drain();

  // The relay stamps its own id on every frame it pumps, so the id alone
  // cannot show a foreign event. All eight diagnose fig-1, so all eight
  // carry the same (phase, name) sequence; a foreign event would change one.
  std::vector<std::vector<std::pair<std::string, std::string>>> sequences(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    std::lock_guard<std::mutex> lock(logs[i]->mu);
    ASSERT_EQ(logs[i]->terminals.size(), 1u) << i;
    EXPECT_FALSE(logs[i]->terminal_after_frame_gap) << i;
    ASSERT_FALSE(logs[i]->frames.empty()) << i;
    const std::string want_id = "c" + std::to_string(i);
    for (const std::string& line : logs[i]->frames) {
      const JsonValue frame = Parse(line);
      EXPECT_EQ(Field(frame, "id"), want_id) << line;
      const JsonValue* event = frame.Find("event");
      ASSERT_NE(event, nullptr) << line;
      sequences[i].emplace_back(Field(*event, "phase"), Field(*event, "name"));
    }
  }
  for (int i = 1; i < kRequests; ++i) {
    EXPECT_EQ(sequences[i], sequences[0]) << "stream c" << i << " differs from c0";
  }
  EXPECT_EQ(DuplicateResponses(), dups_before);
}

TEST(SvcStreamTest, DisconnectedSinkDoesNotKillTheDaemon) {
  StreamLog log;
  Daemon daemon(SmallOptions());
  // A sink that throws models a client whose connection died mid-stream.
  std::atomic<int> attempted{0};
  daemon.Submit(R"({"verb":"diagnose","id":"dead","scenario":"fig-1","stream":true})",
                log.TerminalSink(), [&attempted](std::string) {
                  attempted.fetch_add(1);
                  throw std::runtime_error("broken pipe");
                });
  log.WaitTerminal();
  {
    std::lock_guard<std::mutex> lock(log.mu);
    ASSERT_EQ(log.terminals.size(), 1u);
  }
  EXPECT_GT(attempted.load(), 0);
  // The daemon is still alive and serving.
  EXPECT_EQ(Field(Parse(daemon.HandleLine(R"({"verb":"ping","id":"alive"})")), "status"),
            "ok");
}

}  // namespace
}  // namespace svc
}  // namespace aitia
