#include "src/svc/daemon.h"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "src/bugs/diagnose.h"
#include "src/bugs/registry.h"
#include "src/core/aitia.h"
#include "src/core/report.h"
#include "src/ingest/ingest.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/svc/jsonv.h"
#include "src/tools/sarif.h"
#include "src/util/log.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"

namespace aitia {
namespace svc {

// --- metrics ----------------------------------------------------------------

struct Daemon::Metrics {
  obs::Counter* requests;
  obs::Counter* accepted;
  obs::Counter* completed;
  obs::Counter* degraded;
  obs::Counter* rejected_overloaded;
  obs::Counter* rejected_draining;
  obs::Counter* errors_invalid;
  obs::Counter* errors_not_found;
  obs::Counter* errors_internal;
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Counter* duplicate_responses;  // must stay 0: exactly-once violations
  obs::Gauge* queue_depth;
  obs::Gauge* queue_depth_peak;
  obs::Gauge* in_flight;
  obs::Gauge* draining;
  obs::Histogram* request_us;

  static const Metrics& Get() {
    static const Metrics* const m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      auto* sm = new Metrics();
      sm->requests = reg.GetCounter("svc.requests");
      sm->accepted = reg.GetCounter("svc.accepted");
      sm->completed = reg.GetCounter("svc.completed");
      sm->degraded = reg.GetCounter("svc.degraded");
      sm->rejected_overloaded = reg.GetCounter("svc.rejected_overloaded");
      sm->rejected_draining = reg.GetCounter("svc.rejected_draining");
      sm->errors_invalid = reg.GetCounter("svc.errors_invalid");
      sm->errors_not_found = reg.GetCounter("svc.errors_not_found");
      sm->errors_internal = reg.GetCounter("svc.errors_internal");
      sm->cache_hits = reg.GetCounter("svc.cache_hits");
      sm->cache_misses = reg.GetCounter("svc.cache_misses");
      sm->duplicate_responses = reg.GetCounter("svc.duplicate_responses");
      sm->queue_depth = reg.GetGauge("svc.queue_depth");
      sm->queue_depth_peak = reg.GetGauge("svc.queue_depth_peak");
      sm->in_flight = reg.GetGauge("svc.in_flight");
      sm->draining = reg.GetGauge("svc.draining");
      // Microseconds: a typical diagnosis finishes well under 1 ms.
      sm->request_us = reg.GetHistogram(
          "svc.request_us", {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000,
                             100000, 250000, 500000, 1000000, 5000000, 30000000});
      return sm;
    }();
    return *m;
  }
};

// --- single-shot responder --------------------------------------------------

// Wraps the transport callback so a request can answer at most once, no
// matter how many code paths race to it. A second send is dropped and
// counted — the load and drain drivers assert that counter stays 0.
class Daemon::OnceResponder {
 public:
  explicit OnceResponder(Responder fn) : fn_(std::move(fn)) {}

  void Send(std::string response) {
    if (sent_.exchange(true, std::memory_order_acq_rel)) {
      Metrics::Get().duplicate_responses->Increment();
      return;
    }
    fn_(std::move(response));
  }

 private:
  std::atomic<bool> sent_{false};
  Responder fn_;
};

// --- streaming relay --------------------------------------------------------

// Pumps one streamed request's scope-filtered event-bus frames to its
// transport sink. Constructed before the first lifecycle event is published
// (the subscription exists first, so nothing is missed) and finished —
// close, drain, join — strictly before the terminal response goes out,
// which is what makes "every frame precedes the terminal" structural. A
// slow or dead client only ever loses frames (bounded per-subscription
// queue, oldest dropped and counted); it never back-pressures the worker.
class StreamRelay {
 public:
  StreamRelay(std::string id, Daemon::Responder sink)
      : scope_(obs::EventBus::NextScope()),
        id_(std::move(id)),
        sink_(std::move(sink)),
        sub_(obs::EventBus::Global().Subscribe(scope_)) {
    pump_ = std::thread([this] { Pump(); });
  }

  ~StreamRelay() { Finish(); }

  StreamRelay(const StreamRelay&) = delete;
  StreamRelay& operator=(const StreamRelay&) = delete;

  uint64_t scope() const { return scope_; }

  // Publishes a daemon-side lifecycle event into this request's scope. Going
  // through the bus (instead of writing to the sink directly) keeps daemon
  // frames ordered with pipeline frames: everything funnels through the one
  // subscription queue.
  void Publish(obs::DiagPhase phase, const char* name, std::string detail = std::string(),
               std::vector<std::pair<std::string, int64_t>> counters = {}) {
    obs::PublishDiagEvent(scope_, phase, name, std::move(detail), std::move(counters));
  }

  // Closes the subscription, drains every buffered frame to the sink, joins
  // the pump. Idempotent; must complete before the terminal Send.
  void Finish() {
    sub_->Close();
    if (pump_.joinable()) {
      pump_.join();
    }
    static obs::Counter* const dropped =
        obs::MetricsRegistry::Global().GetCounter("svc.stream_frames_dropped");
    const int64_t d = sub_->dropped();
    if (d > reported_dropped_) {
      dropped->Add(d - reported_dropped_);
      reported_dropped_ = d;
    }
  }

 private:
  void Pump() {
    static obs::Counter* const frames =
        obs::MetricsRegistry::Global().GetCounter("svc.stream_frames");
    static obs::Counter* const sink_errors =
        obs::MetricsRegistry::Global().GetCounter("svc.stream_sink_errors");
    for (;;) {
      std::optional<obs::DiagEvent> event = sub_->Next(/*timeout_ms=*/200);
      if (event.has_value()) {
        if (!sink_dead_) {
          try {
            sink_(StrFormat("{\"id\":\"%s\",\"event\":%s}", JsonEscape(id_).c_str(),
                            obs::DiagEventToJson(*event).c_str()));
            frames->Increment();
          } catch (...) {
            // The client went away mid-stream (broken pipe surfaced as an
            // exception by the transport). The stream degrades to silence;
            // the diagnosis and its terminal response are unaffected, and
            // remaining events drain-discard so Finish() still completes.
            sink_dead_ = true;
            sink_errors->Increment();
          }
        }
        continue;
      }
      if (sub_->closed()) {
        return;  // closed and fully drained
      }
    }
  }

  const uint64_t scope_;
  const std::string id_;
  Daemon::Responder sink_;
  std::shared_ptr<obs::EventSubscription> sub_;
  std::thread pump_;
  bool sink_dead_ = false;  // pump-thread only: stop writing after one failure
  int64_t reported_dropped_ = 0;
};

// --- response builders ------------------------------------------------------

namespace {

std::string ErrorResponse(const std::string& id, const std::string& status,
                          const std::string& error, const std::string& extra = "") {
  return StrFormat("{\"id\":\"%s\",\"status\":\"%s\",\"error\":\"%s\"%s}",
                   JsonEscape(id).c_str(), status.c_str(), JsonEscape(error).c_str(),
                   extra.c_str());
}

std::string ResultResponse(const std::string& id, const std::string& scenario_id,
                           const std::string& status, const char* cache, double elapsed_ms,
                           const std::string& report_json, const std::string& extra = "") {
  return StrFormat(
      "{\"id\":\"%s\",\"verb\":\"diagnose\",\"scenario\":\"%s\",\"status\":\"%s\","
      "\"cache\":\"%s\",\"elapsed_ms\":%.3f,\"report\":%s%s}",
      JsonEscape(id).c_str(), JsonEscape(scenario_id).c_str(), status.c_str(), cache,
      elapsed_ms, report_json.c_str(), extra.c_str());
}

// Maps a finished pipeline report to the protocol's terminal status word.
// "not_reproduced" is reserved for *clean* non-diagnosis: a search that lost
// runs to deadlines, cancellation or the watchdog reads as "degraded" even
// when it found nothing, so callers never mistake a cut-short search for a
// verdict. Every path that cuts a diagnosis short sets `degraded` next to
// `status`, so a non-ok status alone — a failure that reproduced but that no
// race flip prevents — still reads as "not_reproduced".
const char* StatusWord(const AitiaReport& report) {
  if (report.degraded) {
    return "degraded";
  }
  return report.diagnosed ? "ok" : "not_reproduced";
}

// Per-request wall-clock budget when the request sets none, and the ceilings
// admission clamps client-supplied deadline_ms and hold_ms to.
constexpr int64_t kDefaultDeadlineMs = 20000;
constexpr int64_t kMaxDeadlineMs = 120000;
constexpr int64_t kMaxHoldMs = 10000;

}  // namespace

// --- request payload --------------------------------------------------------

struct DiagnoseJob {
  BugScenario scenario;
  std::string id;
  uint64_t fingerprint = 0;
  int64_t deadline_ms = 0;
  int64_t hold_ms = 0;
  bool cacheable = true;
  bool sarif = false;  // attach a SARIF log to the terminal response
  // Non-null for "stream": true requests with a transport frame sink.
  std::shared_ptr<StreamRelay> relay;
  Stopwatch admitted;  // started at admission: elapsed_ms includes queueing
};

// --- daemon -----------------------------------------------------------------

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity),
      pool_(options_.workers == 0 ? 1 : options_.workers, kQueueCapacity) {
  Metrics::Get().draining->Set(0);
}

Daemon::~Daemon() { Drain(); }

void Daemon::Submit(std::string line, Responder respond, Responder stream) {
  auto once = std::make_shared<OnceResponder>(std::move(respond));
  // The request boundary: nothing a single request does — however malformed
  // or unlucky — may take the daemon down or swallow the response.
  try {
    SubmitImpl(std::move(line), once, stream);
  } catch (const std::exception& e) {
    Metrics::Get().errors_internal->Increment();
    once->Send(ErrorResponse("", "internal", StrFormat("request failed: %s", e.what())));
  } catch (...) {
    Metrics::Get().errors_internal->Increment();
    once->Send(ErrorResponse("", "internal", "request failed: unknown exception"));
  }
}

std::string Daemon::HandleLine(const std::string& line, const Responder& stream) {
  // Blocking wrapper over the async path; rejections and cache hits respond
  // inline, diagnoses from a worker thread. Stream frames are delivered (to
  // `stream`, from the relay thread) before the terminal is produced, so by
  // the time this returns the caller has seen every frame.
  struct Sync {
    std::mutex mu;
    std::condition_variable cv;
    std::string response;
    bool done = false;
  };
  auto sync = std::make_shared<Sync>();
  Submit(
      line,
      [sync](std::string response) {
        std::lock_guard<std::mutex> lock(sync->mu);
        sync->response = std::move(response);
        sync->done = true;
        sync->cv.notify_all();
      },
      stream);
  std::unique_lock<std::mutex> lock(sync->mu);
  sync->cv.wait(lock, [&] { return sync->done; });
  return sync->response;
}

void Daemon::SubmitImpl(std::string line, const std::shared_ptr<OnceResponder>& respond,
                        const Responder& stream) {
  const Metrics& m = Metrics::Get();
  m.requests->Increment();

  if (line.size() > kMaxRequestBytes) {
    m.errors_invalid->Increment();
    respond->Send(ErrorResponse(
        "", "invalid_argument",
        StrFormat("request of %zu bytes exceeds limit %zu", line.size(), kMaxRequestBytes)));
    return;
  }
  StatusOr<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) {
    m.errors_invalid->Increment();
    respond->Send(ErrorResponse("", "invalid_argument", parsed.status().ToString()));
    return;
  }
  const JsonValue& doc = *parsed;
  if (!doc.is_object()) {
    m.errors_invalid->Increment();
    respond->Send(ErrorResponse("", "invalid_argument", "request must be a JSON object"));
    return;
  }

  std::string id;
  if (const JsonValue* v = doc.Find("id"); v != nullptr) {
    id = v->is_string() ? v->AsString()
                        : StrFormat("%lld", static_cast<long long>(v->AsInt()));
  } else {
    id = StrFormat("auto-%llu", static_cast<unsigned long long>(
                                    request_seq_.fetch_add(1, std::memory_order_relaxed)));
  }

  const JsonValue* verb_v = doc.Find("verb");
  const std::string verb = verb_v != nullptr && verb_v->is_string() ? verb_v->AsString() : "";
  if (verb == "ping") {
    respond->Send(
        StrFormat("{\"id\":\"%s\",\"verb\":\"ping\",\"status\":\"ok\"}", JsonEscape(id).c_str()));
    return;
  }
  if (verb == "metrics") {
    respond->Send(StrFormat("{\"id\":\"%s\",\"verb\":\"metrics\",\"status\":\"ok\",\"metrics\":%s}",
                            JsonEscape(id).c_str(), MetricsJson().c_str()));
    return;
  }
  if (verb == "shutdown") {
    const bool first = !shutdown_requested_.exchange(true, std::memory_order_acq_rel);
    respond->Send(StrFormat(
        "{\"id\":\"%s\",\"verb\":\"shutdown\",\"status\":\"ok\",\"draining\":true}",
        JsonEscape(id).c_str()));
    if (first && options_.on_shutdown_request) {
      options_.on_shutdown_request();
    }
    return;
  }
  if (verb == "diagnose") {
    HandleDiagnose(doc, id, respond, stream);
    return;
  }
  m.errors_invalid->Increment();
  respond->Send(ErrorResponse(id, "invalid_argument",
                              verb.empty() ? "missing \"verb\""
                                           : StrFormat("unknown verb '%s'", verb.c_str())));
}

void Daemon::HandleDiagnose(const JsonValue& doc, const std::string& id,
                            const std::shared_ptr<OnceResponder>& respond,
                            const Responder& stream) {
  const Metrics& m = Metrics::Get();
  if (draining()) {
    m.rejected_draining->Increment();
    respond->Send(ErrorResponse(id, "draining", "daemon is draining; not admitting requests"));
    return;
  }

  const JsonValue* ait = doc.Find("ait");
  const JsonValue* scen = doc.Find("scenario");
  if ((ait != nullptr) == (scen != nullptr)) {
    m.errors_invalid->Increment();
    respond->Send(ErrorResponse(
        id, "invalid_argument", "diagnose needs exactly one of \"ait\" or \"scenario\""));
    return;
  }

  auto job = std::make_shared<DiagnoseJob>();
  job->id = id;
  if (ait != nullptr) {
    if (!ait->is_string()) {
      m.errors_invalid->Increment();
      respond->Send(ErrorResponse(id, "invalid_argument", "\"ait\" must be a string"));
      return;
    }
    // Parse + assemble on the admission thread: a malformed trace is an
    // input error the client hears about immediately, and it never occupies
    // a queue slot or a worker.
    StatusOr<BugScenario> assembled = ScenarioFromAitText(ait->AsString(), "<request>");
    if (!assembled.ok()) {
      m.errors_invalid->Increment();
      respond->Send(ErrorResponse(id, "invalid_argument", assembled.status().ToString()));
      return;
    }
    job->scenario = *std::move(assembled);
  } else {
    if (!scen->is_string()) {
      m.errors_invalid->Increment();
      respond->Send(ErrorResponse(id, "invalid_argument", "\"scenario\" must be a string"));
      return;
    }
    const ScenarioEntry* entry = FindScenario(scen->AsString());
    if (entry == nullptr) {
      m.errors_not_found->Increment();
      respond->Send(ErrorResponse(
          id, "not_found",
          StrFormat("unknown scenario id '%s'", scen->AsString().c_str())));
      return;
    }
    job->scenario = entry->make();
  }

  auto clamp = [](int64_t v, int64_t lo, int64_t hi) { return v < lo ? lo : (v > hi ? hi : v); };
  job->deadline_ms = clamp(
      doc.Find("deadline_ms") != nullptr ? doc.Find("deadline_ms")->AsInt() : kDefaultDeadlineMs,
      1, kMaxDeadlineMs);
  job->hold_ms =
      clamp(doc.Find("hold_ms") != nullptr ? doc.Find("hold_ms")->AsInt() : 0, 0, kMaxHoldMs);
  const bool no_cache = doc.Find("no_cache") != nullptr && doc.Find("no_cache")->AsBool();
  job->sarif = doc.Find("sarif") != nullptr && doc.Find("sarif")->AsBool();
  // SARIF requests bypass the cache: the log is built from the in-memory
  // report, which the cache does not retain, so a hit could not carry one.
  job->cacheable = !no_cache && !job->sarif;
  job->fingerprint = ScenarioFingerprint(job->scenario);

  // "stream": true with a frame-capable transport: attach the relay now —
  // before the first lifecycle event — so no frame can be missed, and
  // publish kQueued from the admission thread, which orders it strictly
  // before the worker's kStarted (the queue push happens below).
  if (stream != nullptr && doc.Find("stream") != nullptr && doc.Find("stream")->AsBool()) {
    job->relay = std::make_shared<StreamRelay>(id, stream);
    job->relay->Publish(obs::DiagPhase::kQueued, "svc.queued", job->scenario.id,
                        {{"queue_depth", static_cast<int64_t>(pool_.pending())}});
  }

  if (job->cacheable) {
    if (std::optional<CachedResult> hit = cache_.Get(job->fingerprint)) {
      m.cache_hits->Increment();
      if (job->relay != nullptr) {
        job->relay->Publish(obs::DiagPhase::kDone, "svc.done", hit->status_word,
                            {{"cache_hit", 1}});
        job->relay->Finish();
      }
      respond->Send(ResultResponse(id, job->scenario.id, hit->status_word, "hit",
                                   job->admitted.ElapsedMillis(), hit->report_json));
      return;
    }
    m.cache_misses->Increment();
  }

  const bool accepted = pool_.Submit([this, job, respond] {
    std::string error;
    try {
      RunDiagnose(*job, respond);
      return;
    } catch (const std::exception& e) {
      error = StrFormat("diagnosis failed: %s", e.what());
    } catch (...) {
      error = "diagnosis failed: unknown exception";
    }
    Metrics::Get().errors_internal->Increment();
    // Frames strictly before the terminal here too: a transport may free its
    // connection once the terminal is written.
    if (job->relay != nullptr) {
      job->relay->Finish();
    }
    respond->Send(ErrorResponse(job->id, "internal", error));
  });
  if (accepted) {
    m.accepted->Increment();
    const int64_t depth = static_cast<int64_t>(pool_.pending());
    m.queue_depth->Set(depth);
    m.queue_depth_peak->SetMax(depth);
    return;
  }
  // Refused without running: the drain shut the pool down, or every slot is
  // taken.
  if (job->relay != nullptr) {
    job->relay->Finish();  // flush the queued frame before the terminal
  }
  if (draining()) {
    m.rejected_draining->Increment();
    respond->Send(ErrorResponse(id, "draining", "daemon is draining; not admitting requests"));
    return;
  }
  m.rejected_overloaded->Increment();
  respond->Send(ErrorResponse(
      id, "overloaded", "admission queue full; retry later",
      StrFormat(",\"retry_after_ms\":%lld", static_cast<long long>(kRetryAfterMs))));
}

void Daemon::RunDiagnose(const DiagnoseJob& job, const std::shared_ptr<OnceResponder>& respond) {
  const Metrics& m = Metrics::Get();
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  m.in_flight->Add(1);
  const int64_t depth = static_cast<int64_t>(pool_.pending());
  m.queue_depth->Set(depth);

  if (job.relay != nullptr) {
    job.relay->Publish(obs::DiagPhase::kStarted, "svc.started", job.scenario.id,
                       {{"queue_depth", depth}});
  }

  // Load hook: an artificial pre-diagnosis delay, so drivers can pin a
  // worker for a known time. Sliced so a hard drain cuts it short.
  for (int64_t held = 0; held < job.hold_ms && !drain_hard_.load(std::memory_order_acquire);
       held += 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  const double deadline_seconds = static_cast<double>(job.deadline_ms) / 1e3;
  auto run_watch = std::make_shared<Stopwatch>();
  AitiaOptions options;
  options.set_deadline(deadline_seconds);
  if (job.relay != nullptr) {
    options.set_event_scope(job.relay->scope());
  }
  // The cancel probe is the hard bound: it fires when the request exceeds
  // its whole-request budget or when the drain grace expired — either way
  // the supervised stages unwind with kCancelled and the report degrades.
  options.set_cancel([this, run_watch, deadline_seconds] {
    return drain_hard_.load(std::memory_order_acquire) ||
           run_watch->ElapsedSeconds() > deadline_seconds;
  });

  AitiaReport report = DiagnoseScenario(job.scenario, options);
  // A scenario that parsed but cannot run (its setup phase faulted or never
  // finished) is an input error, answered like malformed .ait.
  const bool invalid = report.status.code() == StatusCode::kInvalidArgument;
  const char* status_word = invalid ? "invalid_argument" : StatusWord(report);
  const std::string report_json = invalid ? "" : ReportToJson(report, *job.scenario.image);

  m.completed->Increment();
  if (invalid) {
    m.errors_invalid->Increment();
  } else if (std::string(status_word) == "degraded") {
    m.degraded->Increment();
  } else if (job.cacheable) {
    // Only clean outcomes are cacheable; see cache.h.
    cache_.Put(job.fingerprint, {status_word, report_json});
  }
  const double elapsed_ms = job.admitted.ElapsedMillis();
  m.request_us->Record(static_cast<int64_t>(elapsed_ms * 1e3));
  std::string extra;
  if (job.sarif && !invalid) {
    extra = ",\"sarif\":" + tools::ReportToSarif(job.scenario, report);
  }
  if (job.relay != nullptr) {
    job.relay->Publish(obs::DiagPhase::kDone, "svc.done", status_word,
                       {{"diagnosed", report.diagnosed ? 1 : 0},
                        {"degraded", report.degraded ? 1 : 0}});
    // Frames out, then the terminal: Finish() drains the relay queue to the
    // transport before the single-shot responder fires.
    job.relay->Finish();
  }
  respond->Send(invalid ? ErrorResponse(job.id, status_word, report.status.ToString())
                        : ResultResponse(job.id, job.scenario.id, status_word, "miss",
                                         elapsed_ms, report_json, extra));

  m.in_flight->Add(-1);
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
}

void Daemon::BeginDrain() {
  if (!draining_.exchange(true, std::memory_order_acq_rel)) {
    Metrics::Get().draining->Set(1);
    AITIA_LOG(kInfo) << "aitiad: drain started (queue=" << pool_.pending()
                     << " in_flight=" << in_flight() << ")";
  }
}

void Daemon::Drain() {
  BeginDrain();
  if (drained_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  // Let queued + in-flight work finish under its own deadlines for up to the
  // grace period, then arm the hard cancel probe: supervised runs return
  // kCancelled within a simulator step and the pipeline degrades out.
  Stopwatch grace;
  while ((pool_.pending() > 0 || in_flight() > 0) &&
         grace.ElapsedMillis() < static_cast<double>(options_.drain_grace_ms)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (pool_.pending() > 0 || in_flight() > 0) {
    AITIA_LOG(kWarn) << "aitiad: drain grace expired; cancelling in-flight work";
    drain_hard_.store(true, std::memory_order_release);
  }
  // Authoritative completion barrier: every accepted task has fully run (and
  // responded) once this returns. Submit checks the shutdown flag under the
  // lock it pushes under, so no task can be accepted after this point.
  pool_.Shutdown();
  Metrics::Get().queue_depth->Set(0);
  AITIA_LOG(kInfo) << "aitiad: drain complete";
}

std::string Daemon::MetricsJson() {
  return obs::MetricsRegistry::Global().Snapshot().ToJson();
}

std::string Daemon::StatusJson() const {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  const int64_t hits = snap.counter("svc.cache_hits");
  const int64_t misses = snap.counter("svc.cache_misses");
  const int64_t lookups = hits + misses;
  const auto gauge = [&snap](const char* name) {
    const auto it = snap.gauges.find(name);
    return it == snap.gauges.end() ? int64_t{0} : it->second;
  };
  return StrFormat(
      "{\"uptime_seconds\":%.3f,\"draining\":%s,\"queue_depth\":%zu,"
      "\"queue_depth_peak\":%lld,\"in_flight\":%lld,\"accepted\":%lld,"
      "\"completed\":%lld,\"cache_hit_rate\":%.4f,\"stream_frames\":%lld}",
      uptime_.ElapsedSeconds(), draining() ? "true" : "false", pool_.pending(),
      static_cast<long long>(gauge("svc.queue_depth_peak")),
      static_cast<long long>(in_flight()),
      static_cast<long long>(snap.counter("svc.accepted")),
      static_cast<long long>(snap.counter("svc.completed")),
      lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups),
      static_cast<long long>(snap.counter("svc.stream_frames")));
}

}  // namespace svc
}  // namespace aitia
