#include "src/hv/supervisor.h"

#include "src/obs/trace.h"
#include "src/util/strings.h"

namespace aitia {

std::string RunBudget::ToString() const {
  return StrFormat(
      "attempts=%lld completed=%lld exhausted=%lld deadlines=%lld watchdogs=%lld steps=%lld",
      static_cast<long long>(attempts), static_cast<long long>(completed),
      static_cast<long long>(exhausted), static_cast<long long>(deadline_expirations),
      static_cast<long long>(watchdog_trips), static_cast<long long>(steps));
}

void RunBudget::AddTo(obs::MetricsSnapshot& metrics) const {
  metrics.counters["supervisor.attempts"] += attempts;
  metrics.counters["supervisor.completed"] += completed;
  metrics.counters["supervisor.exhausted"] += exhausted;
  metrics.counters["supervisor.deadline_expirations"] += deadline_expirations;
  metrics.counters["supervisor.watchdog_trips"] += watchdog_trips;
  metrics.counters["supervisor.steps"] += steps;
}

StatusOr<EnforceResult> Supervisor::Supervise(const RunFn& run) {
  // A diagnosis already past its deadline, or cancelled, starts no run.
  EnforceResult er;
  er.status = ctx_->Interrupted();
  if (er.status.ok()) {
    EnforceOptions eo;
    eo.max_steps = options_.max_steps;
    eo.stall_limit = options_.stall_limit;
    if (ctx_->interruptible()) {
      eo.interrupt = [ctx = ctx_] { return ctx->Interrupted(); };
    }
    er = run(eo);
    ++budget_.attempts;
    budget_.steps += er.steps;
    ctx_->metrics.Record("supervisor.run_steps", {100, 1000, 10000, 100000, 1000000}, er.steps);
  }
  switch (er.status.code()) {
    case StatusCode::kDeadlineExceeded:
      ++budget_.deadline_expirations;
      obs::Span("hv", "supervisor.deadline", 'i');
      break;
    case StatusCode::kAborted:
      ++budget_.watchdog_trips;
      obs::Span("hv", "supervisor.watchdog", 'i');
      break;
    default: break;
  }

  // kResourceExhausted (step budget) is a *scored* outcome, not a lost run:
  // the enforcer synthesized the kWatchdog failure the verdict layer knows
  // how to discount.
  if (er.status.ok() || er.status.code() == StatusCode::kResourceExhausted) {
    ++budget_.completed;
    return er;
  }
  ++budget_.exhausted;
  obs::Span exhausted("hv", "supervisor.exhausted", 'i', obs::DiagPhase::kSupervision,
                      ctx_->frames);
  if (exhausted.active()) {
    exhausted.Arg("status", er.status.ToString());
  }
  return er.status;
}

StatusOr<EnforceResult> Supervisor::RunPreemption(const std::vector<ThreadSpec>& threads,
                                                  const PreemptionSchedule& schedule,
                                                  const std::vector<ThreadSpec>& setup) {
  return Supervise([&](const EnforceOptions& eo) {
    Enforcer enforcer(image_);
    return enforcer.RunPreemption(threads, schedule, setup, eo);
  });
}

StatusOr<EnforceResult> Supervisor::RunTotalOrder(const std::vector<ThreadSpec>& threads,
                                                  const TotalOrderSchedule& schedule,
                                                  const std::vector<ThreadSpec>& setup) {
  return Supervise([&](const EnforceOptions& eo) {
    Enforcer enforcer(image_);
    return enforcer.RunTotalOrder(threads, schedule, setup, eo);
  });
}

}  // namespace aitia
