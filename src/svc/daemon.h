// aitiad's transport-independent core: request lifecycle, admission control,
// crash isolation, result cache, and graceful drain (DESIGN.md §11).
//
// The Daemon speaks line-delimited JSON: one request object in, exactly one
// terminal response object out — structurally guaranteed by a single-shot
// responder, whatever the request does (parses, diagnoses, hangs until its
// deadline, or explodes). Transports (the TCP listener, the --once stdin
// loop, in-process tests) are thin shells around Submit()/HandleLine().
//
// Request verbs (see README "The aitiad request protocol"):
//   {"verb":"diagnose", "scenario":"CVE-2017-15649"}        corpus id
//   {"verb":"diagnose", "ait":"...", "id":"r1",
//    "deadline_ms":5000, "hold_ms":0, "no_cache":false,
//    "stream":true, "sarif":true}
//   {"verb":"metrics"}   {"verb":"ping"}   {"verb":"shutdown"}
//
// Streaming: a diagnose request with "stream": true receives zero or more
// NDJSON progress frames {"id":..., "event":{...}} over the same connection
// before — never after — its terminal response. The terminal is still
// exactly one object and carries no "event" key, so existing clients that
// match on "report"/"status" keep working and new clients demux on "event".
// Frames are delivered by a per-request relay pumping the request's own
// src/obs frame queue (bounded, drop-counted); the pipeline itself never
// blocks on a slow streaming consumer.
//
// Failure model, in order of the request pipeline:
//   - oversized / unparseable / unknown-verb input  -> "invalid_argument"
//   - unknown corpus id                             -> "not_found"
//   - malformed .ait text                           -> "invalid_argument"
//   - setup phase faults or outruns its step budget -> "invalid_argument"
//   - admission queue full                          -> "overloaded" (+ retry_after_ms)
//   - drain in progress                             -> "draining"
//   - pipeline Status failure / watchdog / deadline -> "degraded" (partial report)
//   - failure needs no race (empty chain)           -> "not_reproduced"
//   - anything thrown past the request boundary     -> "internal"
// The daemon itself survives all of the above; only the request degrades.

#ifndef SRC_SVC_DAEMON_H_
#define SRC_SVC_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/svc/cache.h"
#include "src/util/stopwatch.h"
#include "src/util/thread_pool.h"

namespace aitia {
namespace svc {

// Admission bounds. A diagnosis that finds all kQueueCapacity slots taken
// is refused at once as "overloaded" with a kRetryAfterMs hint; a request
// line longer than kMaxRequestBytes is refused before parsing.
inline constexpr size_t kQueueCapacity = 32;
inline constexpr size_t kMaxRequestBytes = 1 << 20;
inline constexpr int64_t kRetryAfterMs = 50;

struct DaemonOptions {
  // Diagnosis worker threads (requests running concurrently).
  size_t workers = 2;
  // Result-cache entries; 0 disables caching.
  size_t cache_capacity = 128;
  // How long Drain() lets in-flight work finish before arming the hard
  // cancel probe that cancels it.
  int64_t drain_grace_ms = 5000;
  // Invoked (once) when a client sends the "shutdown" verb, so a blocking
  // transport loop can wake up and start the drain. May be null.
  std::function<void()> on_shutdown_request;
};

class Daemon {
 public:
  using Responder = std::function<void(std::string)>;

  explicit Daemon(DaemonOptions options);
  ~Daemon();  // drains

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Handles one request line. `respond` is called exactly once with the
  // terminal response — inline (rejections, cache hits, protocol errors) or
  // from a worker thread (diagnoses). Safe to call from any thread, also
  // while (or after) draining: post-drain submissions get "draining".
  //
  // `stream` (optional) receives NDJSON progress frames for requests that
  // set "stream": true; it may be called from a relay thread, zero or more
  // times, and always strictly before the terminal `respond`. A null stream
  // downgrades "stream": true to a plain request (no frames).
  void Submit(std::string line, Responder respond, Responder stream = nullptr);

  // Synchronous Submit: blocks until the terminal response is ready (--once
  // mode). `stream` frames, if any, are delivered before this returns.
  std::string HandleLine(const std::string& line, const Responder& stream = nullptr);

  // Stops admitting new diagnosis requests ("draining" rejections).
  void BeginDrain();

  // BeginDrain + waits for in-flight work: up to drain_grace_ms naturally,
  // then arms the cancel probe so supervised runs unwind with kCancelled,
  // and joins the workers. Every accepted request still gets its response.
  // Idempotent.
  void Drain();

  bool draining() const { return draining_.load(std::memory_order_acquire); }
  // True once a client has asked for shutdown via the protocol.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  size_t queue_depth() const { return pool_.pending(); }
  int64_t in_flight() const { return in_flight_.load(std::memory_order_acquire); }

  // Current process-wide metrics snapshot as JSON (the --metrics-json dump).
  static std::string MetricsJson();

  // Service health for the HTTP /statusz endpoint: uptime, queue depth and
  // peak, in-flight, accepted/completed, cache hit rate, drain state.
  std::string StatusJson() const;

 private:
  struct Metrics;
  class OnceResponder;

  void SubmitImpl(std::string line, const std::shared_ptr<OnceResponder>& respond,
                  const Responder& stream);
  void HandleDiagnose(const class JsonValue& doc, const std::string& id,
                      const std::shared_ptr<OnceResponder>& respond,
                      const Responder& stream);
  void RunDiagnose(const struct DiagnoseJob& job,
                   const std::shared_ptr<OnceResponder>& respond);

  const DaemonOptions options_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> drain_hard_{false};
  std::atomic<bool> drained_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<int64_t> in_flight_{0};
  std::atomic<uint64_t> request_seq_{0};
  Stopwatch uptime_;  // construction time; /statusz uptime
  ResultCache cache_;
  // The admission queue: kQueueCapacity pending diagnoses in front of the
  // workers. Declared last, so the workers are joined before anything they
  // touch is destroyed.
  ThreadPool pool_;
};

}  // namespace svc
}  // namespace aitia

#endif  // SRC_SVC_DAEMON_H_
