// Supervised execution of Enforcer runs (§4.4–§4.5 hardening).
//
// A diagnosis service cannot crash — or mislabel a race — because one of 256
// flip runs livelocked or outlived its request. The Supervisor wraps every
// re-execution with:
//
//   - the diagnosis's deadline and cancel probe (src/hv/diag_context.h),
//     checked before each run and between simulator steps,
//   - a livelock watchdog (no schedule progress for `stall_limit` steps), and
//   - per-stage run-budget accounting surfaced in the final report.
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

#include "src/hv/diag_context.h"
#include "src/hv/enforcer.h"
#include "src/obs/metrics.h"
#include "src/util/status.h"

namespace aitia {

struct SupervisorOptions {
  int64_t max_steps = 200000;
  // Livelock watchdog threshold (see EnforceOptions::stall_limit); 0 = off.
  int64_t stall_limit = 0;
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
  // Adds these counts to the supervisor.* counters of `metrics`.
  void AddTo(obs::MetricsSnapshot& metrics) const;
};

// One supervisor per stage; not thread-safe. `ctx` (not owned, non-null)
// supplies the diagnosis's deadline, cancel probe and frame queue, and
// receives each run's supervisor.run_steps.
class Supervisor {
 public:
  Supervisor(const KernelImage* image, SupervisorOptions options, DiagContext* ctx)
      : image_(image), options_(options), ctx_(ctx) {}

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
  DiagContext* ctx_;
  RunBudget budget_;
};

}  // namespace aitia

#endif  // SRC_HV_SUPERVISOR_H_
