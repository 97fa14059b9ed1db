#include "src/obs/trace.h"

#include <algorithm>
#include <utility>

#include "src/util/log.h"
#include "src/util/strings.h"

namespace aitia {
namespace obs {
namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* const tracer = new Tracer();
  return *tracer;
}

void Tracer::Start(size_t capacity) {
  enabled_.store(false, std::memory_order_relaxed);
  epoch_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
    events_.reserve(std::min<size_t>(capacity, 4096));
    dropped_ = 0;
    capacity_ = capacity;
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Stop() { enabled_.store(false, std::memory_order_relaxed); }

int64_t Tracer::NowUs() const {
  return (SteadyNowNs() - epoch_ns_.load(std::memory_order_relaxed)) / 1000;
}

void Tracer::Record(TraceEvent&& event) {
  if (!enabled()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

TraceDump Tracer::Snapshot() const {
  TraceDump dump;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dump.events = events_;
    dump.dropped = dropped_;
    dump.capacity = capacity_;
  }
  std::stable_sort(dump.events.begin(), dump.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_us != b.ts_us) {
                       return a.ts_us < b.ts_us;
                     }
                     return a.tid < b.tid;
                   });
  return dump;
}

std::string ToChromeTraceJson(const TraceDump& dump) {
  std::string json = "{\"traceEvents\": [";
  for (size_t i = 0; i < dump.events.size(); ++i) {
    const TraceEvent& e = dump.events[i];
    if (i != 0) {
      json += ",";
    }
    json += StrFormat("\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", "
                      "\"ts\": %lld, ",
                      JsonEscape(e.name).c_str(), JsonEscape(e.cat).c_str(), e.ph,
                      static_cast<long long>(e.ts_us));
    if (e.ph == 'X') {
      json += StrFormat("\"dur\": %lld, ", static_cast<long long>(e.dur_us));
    }
    if (e.ph == 'i') {
      json += "\"s\": \"t\", ";  // thread-scoped instant
    }
    json += StrFormat("\"pid\": 1, \"tid\": %u", e.tid);
    if (!e.args.empty()) {
      json += ", \"args\": {";
      for (size_t a = 0; a < e.args.size(); ++a) {
        const TraceArg& arg = e.args[a];
        if (a != 0) {
          json += ", ";
        }
        json += "\"" + JsonEscape(arg.key) + "\": ";
        if (arg.quoted) {
          json += "\"" + JsonEscape(arg.value) + "\"";
        } else {
          json += arg.value;
        }
      }
      json += "}";
    }
    json += "}";
  }
  json += StrFormat("\n], \"displayTimeUnit\": \"ms\", "
                    "\"otherData\": {\"dropped_events\": %lld, \"capacity\": %zu}}",
                    static_cast<long long>(dump.dropped), dump.capacity);
  return json;
}

Span::Span(const char* cat, const char* name, char ph, DiagPhase phase, FrameQueue* frames)
    : tracing_(Tracer::Global().enabled()), frames_(frames) {
  if (tracing_) {
    event_.ph = ph;
    event_.cat = cat;
    event_.name = name;
    event_.tid = CurrentThreadTag();
    start_us_ = Tracer::Global().NowUs();
  }
  if (frames_ != nullptr) {
    frame_.phase = phase;
    frame_.name = name;
  }
}

Span::~Span() {
  if (tracing_) {
    Tracer& tracer = Tracer::Global();
    event_.ts_us = start_us_;
    if (event_.ph == 'X') {
      event_.dur_us = tracer.NowUs() - start_us_;
    }
    tracer.Record(std::move(event_));
  }
  if (frames_ != nullptr) {
    frames_->Push(std::move(frame_));
  }
}

Span& Span::Arg(const char* key, const char* value) {
  return active() ? Arg(key, std::string(value)) : *this;
}

Span& Span::Arg(const char* key, const std::string& value) {
  if (tracing_) {
    event_.args.push_back({key, value, /*quoted=*/true});
  }
  if (frames_ != nullptr) {
    if (!frame_.detail.empty()) {
      frame_.detail += ' ';
    }
    frame_.detail += value;
  }
  return *this;
}

Span& Span::Arg(const char* key, bool value) {
  if (tracing_) {
    event_.args.push_back({key, value ? "true" : "false", /*quoted=*/false});
  }
  if (frames_ != nullptr) {
    frame_.counters.emplace_back(key, value ? 1 : 0);
  }
  return *this;
}

Span& Span::IntArg(const char* key, int64_t value) {
  if (tracing_) {
    event_.args.push_back(
        {key, StrFormat("%lld", static_cast<long long>(value)), /*quoted=*/false});
  }
  if (frames_ != nullptr) {
    frame_.counters.emplace_back(key, value);
  }
  return *this;
}

}  // namespace obs
}  // namespace aitia
