// Diagnosis progress frames (DESIGN.md §15).
//
// Where metrics answer "how much" and spans answer "how long", frames answer
// "what is happening *right now*": the lifecycle notifications (queued →
// started → lifs → flip-tested → verdict → done) that the daemon streams to
// a client that asked for "stream": true, one NDJSON frame each.
//
// A streamed request owns one FrameQueue. The daemon's relay pushes its own
// lifecycle frames into it and points the request's DiagContext at it; the
// pipeline's streaming spans (src/obs/trace.h) push theirs; the relay's pump
// thread drains it to the client. Every other diagnosis has no queue, and
// its spans build no frame.
//
//   1. Purity. Nothing reads a frame back to make a decision, so a streamed
//      diagnosis is bit-identical to an unstreamed one
//      (GoldenTest.EventsOnEqualsGolden, which also pins every corpus
//      diagnosis's frames).
//   2. Bounded. The queue has a fixed capacity; a slow consumer drops the
//      *oldest* frames (counted, surfaced as svc.stream_frames_dropped)
//      instead of back-pressuring the diagnosis.

#ifndef SRC_OBS_EVENTS_H_
#define SRC_OBS_EVENTS_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
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
  kLifs,        // LIFS search progress (discovery, depth pass, reproduction)
  kSupervision, // supervisor lost a run (deadline, cancel, watchdog)
  kFlipTested,  // one dynamic flip test finished
  kVerdict,     // one race reached a settled verdict
  kDone,        // terminal: the report is about to be sent
};

// Stable kebab-case token for the wire protocol ("flip-tested").
const char* DiagPhaseName(DiagPhase phase);

struct DiagEvent {
  uint64_t seq = 0;    // position in its queue, assigned on push
  DiagPhase phase = DiagPhase::kQueued;
  std::string name;    // dotted source site, e.g. "ca.flip", "lifs.pass"
  std::string detail;  // human-readable label (race label, verdict, ...)
  // Small per-phase counters (index/total style). A vector of pairs, not a
  // map: insertion order is the display order and N is tiny.
  std::vector<std::pair<std::string, int64_t>> counters;
};

// One streamed request's bounded frame queue: any thread pushes, one
// consumer drains.
class FrameQueue {
 public:
  explicit FrameQueue(size_t capacity = 256);

  FrameQueue(const FrameQueue&) = delete;
  FrameQueue& operator=(const FrameQueue&) = delete;

  // Appends `event` with the next seq. A full queue first evicts its oldest
  // frame: streaming is a progress feed, so the newest frame is the
  // valuable one when the consumer lags. Does nothing once closed.
  void Push(DiagEvent event);

  // Blocks up to timeout_ms for the next frame. Returns nullopt when the
  // queue is empty and either the timeout elapsed or the queue is closed
  // (check closed() to tell the two apart). Frames pushed before Close()
  // are still delivered — close-then-drain is lossless.
  std::optional<DiagEvent> Next(int64_t timeout_ms);

  // Stops further pushes and wakes a pending Next(). Safe to call from any
  // thread, any number of times.
  void Close();

  bool closed() const;
  // Frames discarded because the queue was full (oldest-first eviction).
  int64_t dropped() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  std::deque<DiagEvent> queue_;
  uint64_t next_seq_ = 0;
  int64_t dropped_ = 0;
  bool closed_ = false;
};

// JSON object for one frame, used verbatim as the body of a daemon stream
// frame: {"phase": "...", "seq": N, "name": "...", "detail": "...",
// "counters": {...}}. Deterministic field order; `detail`/`counters` are
// omitted when empty.
std::string DiagEventToJson(const DiagEvent& event);

}  // namespace obs
}  // namespace aitia

#endif  // SRC_OBS_EVENTS_H_
