// The schedule enforcer — the in-simulator analog of the AITIA hypervisor.
//
// The real system installs hardware breakpoints at scheduling points, parks
// threads on a trampoline busy-loop, and flips VM contexts on VM_EXIT
// (§4.4). Here, the enforcer drives KernelSim::Step directly: "breakpoint"
// is a stop-before/after-pc check, "trampoline" is KernelSim::Park, and
// "watchpoint" is the Watchpoints observer fed from the event stream.

#ifndef SRC_HV_ENFORCER_H_
#define SRC_HV_ENFORCER_H_

#include <functional>
#include <optional>
#include <vector>

#include "src/hv/schedule.h"
#include "src/hv/watchpoint.h"
#include "src/sim/kernel.h"
#include "src/sim/thread.h"
#include "src/util/status.h"

namespace aitia {

// Per-run enforcement knobs. The plain-`max_steps` overloads below cover the
// common case; the supervisor (src/hv/supervisor.h) fills in the rest.
struct EnforceOptions {
  int64_t max_steps = 200000;
  // Steps the schedule may go without making progress (a point firing, an
  // entry retiring, or the total-order index advancing) before the run is
  // aborted as livelocked. 0 disables the watchdog. Detects e.g. a flip
  // whose liveness drain spins a lock holder forever — long before the step
  // budget would.
  int64_t stall_limit = 0;
  // Polled every few hundred steps; a non-ok Status aborts the run with that
  // status. The supervisor uses this for wall-clock deadlines and
  // cancellation.
  std::function<Status()> interrupt;
};

struct EnforceResult {
  RunResult run;
  // Health of the enforcement itself: non-ok when the run was cut short
  // (deadline, cancellation, livelock watchdog) and `run` is partial, or
  // never started (kInvalidArgument: the setup phase faulted or outran its
  // step budget; `run` is empty). The kernel-level symptom, if any, stays in
  // run.failure.
  Status status;
  int64_t steps = 0;
  // Entries of a total-order schedule that never executed because a
  // race-steered control flow made the thread bypass them (§3.4).
  std::vector<DynInstr> disappeared;
  // Preemption points that never fired (instruction never retired).
  std::vector<DynInstr> unfired_points;
  // Steps executed outside the schedule's prescribed order (e.g. letting a
  // lock holder drain to preserve liveness).
  int64_t deviations = 0;
  // Data races observed by the watchpoints armed at preemption points.
  std::vector<WatchpointHit> watch_hits;
};

class Enforcer {
 public:
  explicit Enforcer(const KernelImage* image) : image_(image) {}

  // Reproducing-stage run: executes `threads` under a preemption schedule.
  // At each fired point the preempted thread is parked and a watchpoint is
  // armed over the address its last instruction accessed. `setup` is the
  // slice prologue (runs unrecorded before the concurrent threads start).
  EnforceResult RunPreemption(const std::vector<ThreadSpec>& threads,
                              const PreemptionSchedule& schedule,
                              const std::vector<ThreadSpec>& setup,
                              const EnforceOptions& options);
  EnforceResult RunPreemption(const std::vector<ThreadSpec>& threads,
                              const PreemptionSchedule& schedule,
                              const std::vector<ThreadSpec>& setup = {},
                              int64_t max_steps = 200000) {
    EnforceOptions options;
    options.max_steps = max_steps;
    return RunPreemption(threads, schedule, setup, options);
  }

  // Diagnosing-stage run: replays a total order of dynamic instructions,
  // parking diverging threads and dropping their remaining entries.
  EnforceResult RunTotalOrder(const std::vector<ThreadSpec>& threads,
                              const TotalOrderSchedule& schedule,
                              const std::vector<ThreadSpec>& setup,
                              const EnforceOptions& options);
  EnforceResult RunTotalOrder(const std::vector<ThreadSpec>& threads,
                              const TotalOrderSchedule& schedule,
                              const std::vector<ThreadSpec>& setup = {},
                              int64_t max_steps = 200000) {
    EnforceOptions options;
    options.max_steps = max_steps;
    return RunTotalOrder(threads, schedule, setup, options);
  }

 private:
  const KernelImage* image_;
};

}  // namespace aitia

#endif  // SRC_HV_ENFORCER_H_
