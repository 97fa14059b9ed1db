// Diagnosis progress event bus (DESIGN.md §15).
//
// The second observability layer: where metrics answer "how much" and spans
// answer "how long", events answer "what is happening *right now*" — a
// bounded stream of structured lifecycle notifications (queued → started →
// lifs → flip-tested → verdict → done) that the daemon relays to
// streaming clients as NDJSON frames.
//
// Design constraints, in order:
//   1. Purity. Publishing must never perturb the pipeline. Nothing ever
//      reads an event back to make a decision, and when nobody is
//      subscribed the publish fast path is a single relaxed atomic load —
//      no allocation, no lock, no formatting. The flight-deck differential
//      test asserts corpus-wide bit-identical verdicts/chains/schedules
//      with streaming on vs. off.
//   2. Bounded. A subscription owns a fixed-capacity queue; a slow consumer
//      drops the *oldest* events (counted, surfaced via obs.events.dropped)
//      instead of back-pressuring the diagnosis.
//   3. Scoped. The daemon runs many diagnoses concurrently; each request
//      publishes under its own nonzero scope id and a subscription sees
//      only its scope. Scope 0 means "not publishing" and is never matched.
//
// Lock-light, not lock-free: the publish slow path (subscribers present)
// takes one short mutex to find matching subscriptions, and each
// subscription has its own queue mutex. Event volume is a handful per
// diagnosis phase, orders of magnitude below the metrics write rate, so a
// mutex here is invisible — the fast path is what must stay free.

#ifndef SRC_OBS_EVENTS_H_
#define SRC_OBS_EVENTS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace aitia {
namespace obs {

// Lifecycle phases of one diagnosis, in nominal order. Individual phases may
// repeat (one kFlipTested per race) or be absent (cache hits jump straight
// to kDone).
enum class DiagPhase {
  kQueued,      // accepted by the daemon admission queue
  kStarted,     // a worker picked the request up
  kLifs,        // LIFS search progress (per frontier pass / reproduction)
  kSupervision, // supervisor lost a run (deadline, cancel, watchdog)
  kFlipTested,  // one dynamic flip test finished
  kVerdict,     // one race reached a settled verdict
  kDone,        // terminal: the report is about to be sent
};

// Stable kebab-case token for the wire protocol ("flip-tested").
const char* DiagPhaseName(DiagPhase phase);

struct DiagEvent {
  uint64_t scope = 0;  // publisher's scope id; 0 = unscoped (never delivered)
  uint64_t seq = 0;    // per-subscription delivery sequence, assigned on enqueue
  DiagPhase phase = DiagPhase::kQueued;
  std::string name;    // dotted source site, e.g. "ca.flip", "lifs.pass"
  std::string detail;  // human-readable label (race label, verdict, ...)
  // Small per-phase counters (index/total style). A vector of pairs, not a
  // map: insertion order is the display order and N is tiny.
  std::vector<std::pair<std::string, int64_t>> counters;
};

// One consumer's bounded view of the bus. Obtained from EventBus::Subscribe;
// detached from the bus by Close() (idempotent) or destruction.
class EventSubscription {
 public:
  ~EventSubscription();

  // Blocks up to timeout_ms for the next event. Returns nullopt when the
  // queue is empty and either the timeout elapsed or the subscription is
  // closed (check closed() to tell the two apart). Events buffered before
  // Close() are still delivered — close-then-drain is lossless.
  std::optional<DiagEvent> Next(int64_t timeout_ms);

  // Detaches from the bus: no further events are enqueued, pending Next()
  // calls wake. Safe to call from any thread, any number of times.
  void Close();

  bool closed() const;
  uint64_t scope() const { return scope_; }
  // Events discarded because the queue was full (oldest-first eviction).
  int64_t dropped() const;

 private:
  friend class EventBus;
  EventSubscription(uint64_t scope, size_t capacity);

  const uint64_t scope_;
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<DiagEvent> queue_;
  uint64_t next_seq_ = 0;
  int64_t dropped_ = 0;
  bool closed_ = false;
};

class EventBus {
 public:
  EventBus() = default;
  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  // The process-wide bus the pipeline publishes to.
  static EventBus& Global();

  // Registers a consumer for events published under `scope` (must be
  // nonzero). The returned subscription stays valid after the bus moves on;
  // dropping the shared_ptr or calling Close() detaches it.
  std::shared_ptr<EventSubscription> Subscribe(uint64_t scope, size_t capacity = 256);

  // Hands the event to every live subscription whose scope matches. When no
  // subscriber exists (the CLI, a non-streamed daemon request) this is a
  // single relaxed load and a branch.
  void Publish(DiagEvent event);

  // True when at least one subscription is attached. Publishers use this to
  // skip even *building* the event (string formatting) on the fast path.
  bool active() const { return subscriber_count_.load(std::memory_order_relaxed) > 0; }

  // Allocates a fresh nonzero scope id (process-wide monotonic).
  static uint64_t NextScope();

 private:
  void Compact();  // drops closed subscriptions; callers hold mu_

  std::atomic<int64_t> subscriber_count_{0};
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<EventSubscription>> subs_;
};

// Publisher-side helper: no-op unless the global bus has a subscriber and
// scope is nonzero. Call sites pass cheap arguments; the strings are only
// materialized on the slow path.
void PublishDiagEvent(uint64_t scope, DiagPhase phase, const char* name,
                      std::string detail = std::string(),
                      std::vector<std::pair<std::string, int64_t>> counters = {});

// JSON object for one event, used verbatim as the body of a daemon stream
// frame: {"phase": "...", "seq": N, "name": "...", "detail": "...",
// "counters": {...}}. Deterministic field order; `detail`/`counters` are
// omitted when empty.
std::string DiagEventToJson(const DiagEvent& event);

}  // namespace obs
}  // namespace aitia

#endif  // SRC_OBS_EVENTS_H_
