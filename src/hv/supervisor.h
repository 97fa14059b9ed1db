// Supervised execution of Enforcer runs (§4.4–§4.5 hardening).
//
// The paper's deployment drives a fleet of real VMs where individual runs
// hang, die, or deviate; a diagnosis service cannot crash — or mislabel a
// race — because one of 256 flip runs livelocked. The Supervisor wraps every
// re-execution with:
//
//   - a wall-clock deadline per attempt (on top of the step budget),
//   - a livelock watchdog (no schedule progress for `stall_limit` steps),
//   - bounded retry with deterministic seeded backoff jitter for runs lost
//     to injected or transient faults (each attempt re-rolls the fault
//     stream, the way a rebooted VM re-rolls real-world noise), and
//   - per-diagnosis run-budget accounting surfaced in the final report.
//
// A run that exhausts its attempts yields a non-ok Status; callers degrade
// gracefully (LIFS skips the schedule, Causality Analysis files the flip
// test as kInconclusive) instead of misclassifying.

#ifndef SRC_HV_SUPERVISOR_H_
#define SRC_HV_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "src/hv/enforcer.h"
#include "src/sim/faults.h"
#include "src/util/status.h"

namespace aitia {

struct SupervisorOptions {
  int64_t max_steps = 200000;
  // Wall-clock deadline per attempt; 0 disables. Deadline expiry is not
  // retried: the simulator is deterministic, so a slow run stays slow.
  double deadline_seconds = 0;
  // Livelock watchdog threshold (see EnforceOptions::stall_limit); 0 = off.
  int64_t stall_limit = 0;
  // Total attempts per run (first try + retries). Only kUnavailable (lost
  // run) and kAborted (livelock) are retried — the fault classes that
  // re-roll on a fresh attempt.
  int max_attempts = 1;
  // Seed for the deterministic retry jitter; combined with the run nonce and
  // attempt index so concurrent runs never share a backoff stream.
  uint64_t retry_seed = 0xA171A;
  // Upper bound of the per-retry backoff sleep, in milliseconds. 0 disables
  // sleeping entirely (the default: simulator retries are free).
  uint64_t backoff_ms_cap = 0;
  // Fault-injection plan applied to every attempt; disabled when empty.
  FaultPlan faults;
  // Cooperative cancellation probe (null = never cancelled). Checked before
  // every attempt and between simulator steps; once it returns true, runs
  // finish with kCancelled (not retried) so an in-flight diagnosis unwinds
  // within one step rather than spending its remaining budget. The service
  // layer points this at its drain flag and request deadline.
  std::function<bool()> cancel;
  // Progress-event scope (src/obs/events.h): nonzero publishes supervision
  // interventions (retries, deadline expirations, watchdog trips) to a
  // streaming subscriber; 0 publishes nothing.
  uint64_t event_scope = 0;
};

// Per-diagnosis accounting of what supervision spent and absorbed.
struct RunBudget {
  int64_t runs = 0;                  // logical runs requested
  int64_t attempts = 0;              // physical enforcer executions
  int64_t completed = 0;             // attempts that returned a usable run
  int64_t retries = 0;
  int64_t exhausted = 0;             // runs that failed every attempt
  int64_t deadline_expirations = 0;
  int64_t watchdog_trips = 0;
  int64_t injected_faults = 0;       // fault events across all attempts
  int64_t steps = 0;                 // simulator steps across all attempts
  int64_t backoff_ms = 0;            // total deterministic jitter slept

  void Merge(const RunBudget& other);
  std::string ToString() const;
};

class Supervisor {
 public:
  Supervisor(const KernelImage* image, SupervisorOptions options)
      : image_(image), options_(std::move(options)) {}

  // `nonce` identifies the logical run (e.g. the flip-test index) so fault
  // and jitter streams are stable under parallel execution order. Both
  // methods are thread-safe.
  StatusOr<EnforceResult> RunPreemption(const std::vector<ThreadSpec>& threads,
                                        const PreemptionSchedule& schedule,
                                        const std::vector<ThreadSpec>& setup,
                                        uint64_t nonce = 0);
  StatusOr<EnforceResult> RunTotalOrder(const std::vector<ThreadSpec>& threads,
                                        const TotalOrderSchedule& schedule,
                                        const std::vector<ThreadSpec>& setup,
                                        uint64_t nonce = 0);

  RunBudget budget() const;
  const SupervisorOptions& options() const { return options_; }

 private:
  using RunFn = std::function<EnforceResult(const EnforceOptions&)>;
  StatusOr<EnforceResult> Supervise(const RunFn& run, uint64_t nonce);
  // Attempt loop proper; accumulates accounting into `delta` so Supervise
  // can publish it to the shared budget under a single lock acquisition.
  StatusOr<EnforceResult> SuperviseAccounted(const RunFn& run, uint64_t nonce, RunBudget& delta);

  const KernelImage* image_;
  SupervisorOptions options_;
  mutable std::mutex mu_;
  RunBudget budget_;
};

}  // namespace aitia

#endif  // SRC_HV_SUPERVISOR_H_
