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
// Frames are delivered by a per-request relay pumping the src/obs event bus
// (scope-filtered, bounded, drop-counted); the pipeline itself never blocks
// on a slow streaming consumer.
//
// Failure model, in order of the request pipeline:
//   - oversized / unparseable / unknown-verb input  -> "invalid_argument"
//   - unknown corpus id                             -> "not_found"
//   - malformed .ait text                           -> "invalid_argument"
//   - setup phase faults or outruns its step budget -> "invalid_argument"
//   - target queue shard full                       -> "overloaded" (+ retry_after_ms)
//   - drain in progress                             -> "draining"
//   - pipeline Status failure / watchdog / deadline -> "degraded" (partial report)
//   - anything thrown past the request boundary     -> "internal"
// The daemon itself survives all of the above; only the request degrades.

#ifndef SRC_SVC_DAEMON_H_
#define SRC_SVC_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/analysis/triage.h"
#include "src/sim/faults.h"
#include "src/svc/cache.h"
#include "src/svc/work_queue.h"
#include "src/util/stopwatch.h"

namespace aitia {
namespace svc {

struct DaemonOptions {
  // Diagnosis worker threads (requests running concurrently).
  size_t workers = 2;
  // Admission queue geometry: total queued bound = shards × shard_capacity.
  size_t queue_shards = 4;
  size_t shard_capacity = 8;
  // Result-cache entries; 0 disables caching.
  size_t cache_capacity = 128;
  // Per-request wall-clock budget when the request does not set its own.
  int64_t default_deadline_ms = 20000;
  // Ceiling on client-supplied deadline_ms and hold_ms (admission clamps).
  int64_t max_deadline_ms = 120000;
  int64_t max_hold_ms = 10000;
  // Hint returned with "overloaded" rejections.
  int64_t retry_after_ms = 50;
  // Requests larger than this are rejected before parsing.
  size_t max_request_bytes = 1 << 20;
  // How long Drain() lets in-flight work finish before arming the hard
  // cancel probe that deadlines it out.
  int64_t drain_grace_ms = 5000;
  // Static triage pre-filter stages applied inside every diagnosis
  // (DESIGN.md §13); empty disables the pre-filter (--no-prefilter). Chaos
  // runs disable it automatically — triage proofs assume faultless replay.
  analysis::TriagePipeline triage_stages = analysis::DefaultTriagePipeline();
  // Chaos: fault plan injected into every diagnosis (disabled when empty).
  // Caching is bypassed under chaos — fault-shaped results must not stick.
  FaultPlan faults;
  // Supervisor attempts per run while faults are enabled.
  int fault_max_attempts = 3;
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

  size_t queue_depth() const { return queue_->depth(); }
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
  std::unique_ptr<WorkQueue> queue_;
};

}  // namespace svc
}  // namespace aitia

#endif  // SRC_SVC_DAEMON_H_
