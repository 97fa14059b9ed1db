// One diagnosis's per-request state (DESIGN.md §7, §10.2).
//
// A diagnosis is one LIFS search followed by one flip test per race
// (§3.3–§3.4), and every kernel re-execution in it answers to the same
// request budget. The caller sets the deadline, the cancel probe and, for a
// streamed request, the frame queue; LIFS, Causality Analysis and the
// Supervisor that runs their re-executions read them, and record their
// counts into `metrics`. The facade copies those counts into
// AitiaReport::metrics and merges them into the process-wide registry once,
// so a report counts only its own work at any concurrency.
//
// A context serves one diagnosis on one thread and is not thread-safe; only
// the cancel probe may read state that other threads write.

#ifndef SRC_HV_DIAG_CONTEXT_H_
#define SRC_HV_DIAG_CONTEXT_H_

#include <chrono>
#include <functional>

#include "src/obs/metrics.h"
#include "src/util/status.h"

namespace aitia {
namespace obs {
class FrameQueue;
}  // namespace obs

struct DiagContext {
  using Clock = std::chrono::steady_clock;

  // Absolute wall-clock deadline of the whole diagnosis; the default never
  // expires.
  Clock::time_point deadline = Clock::time_point::max();
  // Cooperative cancellation probe (null = never cancelled). The service
  // layer points it at its hard-drain flag.
  std::function<bool()> cancel;
  // The streamed request's frame queue (src/obs/events.h), owned by the
  // daemon's stream relay; the stages' streaming spans push into it. Null,
  // as for every diagnosis nobody streams, builds no frame.
  obs::FrameQueue* frames = nullptr;

  // The counters and histograms the stages record for this diagnosis.
  obs::MetricsSnapshot metrics;

  // True when a deadline or a cancel probe is set: only then must runs poll
  // Interrupted() between steps.
  bool interruptible() const { return deadline != Clock::time_point::max() || cancel; }

  // kCancelled once the probe returns true, else kDeadlineExceeded once the
  // deadline has passed, else ok: the probe is called before the clock is
  // read. The only place the clock is compared with the deadline.
  Status Interrupted() const;
};

}  // namespace aitia

#endif  // SRC_HV_DIAG_CONTEXT_H_
