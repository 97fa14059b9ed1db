// Supervised execution of Enforcer runs (§4.4–§4.5 hardening).
//
// A diagnosis service cannot crash — or mislabel a race — because one of 256
// flip runs livelocked or outlived its request. The Supervisor wraps every
// re-execution with:
//
//   - a wall-clock deadline per run (on top of the step budget),
//   - cooperative cancellation,
//   - a livelock watchdog (no schedule progress for `stall_limit` steps), and
//   - per-diagnosis run-budget accounting surfaced in the final report.
//
// Runs are deterministic, so a lost run is not retried: it yields a non-ok
// Status and callers degrade gracefully (LIFS skips the schedule, Causality
// Analysis files the flip test as kInconclusive) instead of misclassifying.

#ifndef SRC_HV_SUPERVISOR_H_
#define SRC_HV_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/hv/enforcer.h"
#include "src/util/status.h"

namespace aitia {

struct SupervisorOptions {
  int64_t max_steps = 200000;
  // Wall-clock deadline per run; 0 disables.
  double deadline_seconds = 0;
  // Livelock watchdog threshold (see EnforceOptions::stall_limit); 0 = off.
  int64_t stall_limit = 0;
  // Cooperative cancellation probe (null = never cancelled). Checked before
  // every run and between simulator steps; once it returns true, runs finish
  // with kCancelled so an in-flight diagnosis unwinds within one step rather
  // than spending its remaining budget. The service layer points this at its
  // drain flag and request deadline.
  std::function<bool()> cancel;
  // Progress-event scope (src/obs/events.h): nonzero publishes lost runs to
  // a streaming subscriber; 0 publishes nothing.
  uint64_t event_scope = 0;
};

// Per-diagnosis accounting of what supervision spent and lost.
struct RunBudget {
  int64_t attempts = 0;              // enforcer executions
  int64_t completed = 0;             // executions that returned a usable run
  int64_t exhausted = 0;             // runs lost (cancelled, deadline, watchdog)
  int64_t deadline_expirations = 0;
  int64_t watchdog_trips = 0;
  int64_t steps = 0;                 // simulator steps across all executions

  std::string ToString() const;
};

// One supervisor per search; not thread-safe.
class Supervisor {
 public:
  Supervisor(const KernelImage* image, SupervisorOptions options)
      : image_(image), options_(std::move(options)) {}

  StatusOr<EnforceResult> RunPreemption(const std::vector<ThreadSpec>& threads,
                                        const PreemptionSchedule& schedule,
                                        const std::vector<ThreadSpec>& setup);
  StatusOr<EnforceResult> RunTotalOrder(const std::vector<ThreadSpec>& threads,
                                        const TotalOrderSchedule& schedule,
                                        const std::vector<ThreadSpec>& setup);

  const RunBudget& budget() const { return budget_; }

 private:
  using RunFn = std::function<EnforceResult(const EnforceOptions&)>;
  StatusOr<EnforceResult> Supervise(const RunFn& run);

  const KernelImage* image_;
  SupervisorOptions options_;
  RunBudget budget_;
};

}  // namespace aitia

#endif  // SRC_HV_SUPERVISOR_H_
