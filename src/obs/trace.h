// Structured span tracer (DESIGN.md §10).
//
// Ring-buffered trace events with thread tags, categories, and key/value
// args. Disabled by default: an inactive Span is a single relaxed atomic
// load and nothing else, so instrumentation can stay in the LIFS hot path
// permanently. When enabled (CLI --trace, or Tracer::Start in tests) events
// land in per-shard bounded rings — memory is capped at Start() time, and
// events past the cap are counted as dropped rather than grown or blocked
// on.
//
// Determinism rule: tracing is pure read-side. Spans observe the pipeline
// and never feed back into it, so a traced diagnosis is bit-identical to an
// untraced one (asserted corpus-wide by tests/golden_test.cc).
//
// The export format is the Chrome trace-event JSON (the "JSON Object
// Format"): load the file in about:tracing or https://ui.perfetto.dev.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace aitia {
namespace obs {

struct TraceArg {
  std::string key;
  std::string value;  // pre-rendered; quoted in JSON iff `quoted`
  bool quoted = true;
};

struct TraceEvent {
  char ph = 'X';     // 'X' complete span, 'i' instant event
  std::string cat;   // pipeline phase: "ingest", "lifs", "causality", "hv", "pipeline"
  std::string name;
  int64_t ts_us = 0;   // microseconds since Tracer::Start
  int64_t dur_us = 0;  // 'X' only
  uint32_t tid = 0;    // CurrentThreadTag()
  std::vector<TraceArg> args;
};

struct TraceDump {
  std::vector<TraceEvent> events;  // merged across shards, sorted by ts_us
  int64_t dropped = 0;             // events discarded once the rings filled
  size_t capacity = 0;             // total event capacity at Start()
};

class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;
  static constexpr size_t kShards = 16;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The process-wide tracer all Spans report to.
  static Tracer& Global();

  // Clears any previous events, sets the time epoch, bounds total memory to
  // ~`capacity` events, and enables recording.
  void Start(size_t capacity = kDefaultCapacity);

  // Disables recording. Already-buffered events stay until the next Start.
  void Stop();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Microseconds since the Start epoch.
  int64_t NowUs() const;

  // Appends one event to the caller's shard (drop-counted once full).
  // No-op when disabled.
  void Record(TraceEvent&& event);

  // Merged snapshot; safe to call while recording (per-shard locks).
  TraceDump Snapshot() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::vector<TraceEvent> events;
    int64_t dropped = 0;
    size_t capacity = 0;
  };

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> epoch_ns_{0};  // steady_clock nanos at Start
  Shard shards_[kShards];
};

// Serializes a dump to Chrome trace-event JSON ("JSON Object Format"):
// {"traceEvents": [...], "displayTimeUnit": "ms", "otherData": {...}}.
std::string ToChromeTraceJson(const TraceDump& dump);

// RAII span: records one 'X' (complete) event covering its lifetime, or one
// 'i' (instant) event at destruction. Near-zero cost when tracing is off.
//
//   obs::Span span("lifs", "lifs.run");
//   span.Arg("k", interleavings).Arg("matched", matched);
//
//   obs::Span("lifs", "lifs.prune", 'i').Arg("reason", "duplicate-schedule");
class Span {
 public:
  Span(const char* cat, const char* name, char ph = 'X');
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  Span& Arg(const char* key, const char* value);
  Span& Arg(const char* key, const std::string& value);
  Span& Arg(const char* key, bool value);
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>, int> = 0>
  Span& Arg(const char* key, T value) {
    return IntArg(key, static_cast<int64_t>(value));
  }

 private:
  Span& IntArg(const char* key, int64_t value);

  bool active_;
  int64_t start_us_ = 0;
  TraceEvent event_;
};

}  // namespace obs
}  // namespace aitia

#endif  // SRC_OBS_TRACE_H_
