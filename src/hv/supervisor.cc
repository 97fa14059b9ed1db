#include "src/hv/supervisor.h"

#include <utility>

#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"

namespace aitia {
namespace {

struct SupervisorMetrics {
  obs::Counter* attempts;
  obs::Counter* completed;
  obs::Counter* exhausted;
  obs::Counter* deadline_expirations;
  obs::Counter* watchdog_trips;
  obs::Counter* steps;
  obs::Histogram* run_steps;

  static const SupervisorMetrics& Get() {
    static const SupervisorMetrics* const m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      auto* sm = new SupervisorMetrics();
      sm->attempts = reg.GetCounter("supervisor.attempts");
      sm->completed = reg.GetCounter("supervisor.completed");
      sm->exhausted = reg.GetCounter("supervisor.exhausted");
      sm->deadline_expirations = reg.GetCounter("supervisor.deadline_expirations");
      sm->watchdog_trips = reg.GetCounter("supervisor.watchdog_trips");
      sm->steps = reg.GetCounter("supervisor.steps");
      sm->run_steps =
          reg.GetHistogram("supervisor.run_steps", {100, 1000, 10000, 100000, 1000000});
      return sm;
    }();
    return *m;
  }
};

}  // namespace

std::string RunBudget::ToString() const {
  return StrFormat(
      "attempts=%lld completed=%lld exhausted=%lld deadlines=%lld watchdogs=%lld steps=%lld",
      static_cast<long long>(attempts), static_cast<long long>(completed),
      static_cast<long long>(exhausted), static_cast<long long>(deadline_expirations),
      static_cast<long long>(watchdog_trips), static_cast<long long>(steps));
}

StatusOr<EnforceResult> Supervisor::Supervise(const RunFn& run) {
  const SupervisorMetrics& m = SupervisorMetrics::Get();
  if (options_.cancel && options_.cancel()) {
    ++budget_.exhausted;
    m.exhausted->Increment();
    return Status::Cancelled("run cancelled before attempt");
  }

  EnforceOptions eo;
  eo.max_steps = options_.max_steps;
  eo.stall_limit = options_.stall_limit;
  Stopwatch watch;
  if (options_.deadline_seconds > 0 || options_.cancel) {
    const double deadline = options_.deadline_seconds;
    const std::function<bool()>* cancel = options_.cancel ? &options_.cancel : nullptr;
    eo.interrupt = [&watch, deadline, cancel]() -> Status {
      if (cancel != nullptr && (*cancel)()) {
        return Status::Cancelled("run cancelled mid-flight");
      }
      if (deadline > 0 && watch.ElapsedSeconds() > deadline) {
        return Status::DeadlineExceeded("run exceeded wall-clock deadline");
      }
      return OkStatus();
    };
  }

  EnforceResult er = run(eo);
  ++budget_.attempts;
  budget_.steps += er.steps;
  m.attempts->Increment();
  m.steps->Add(er.steps);
  m.run_steps->Record(er.steps);
  switch (er.status.code()) {
    case StatusCode::kDeadlineExceeded:
      ++budget_.deadline_expirations;
      m.deadline_expirations->Increment();
      obs::Span("hv", "supervisor.deadline", 'i');
      break;
    case StatusCode::kAborted:
      ++budget_.watchdog_trips;
      m.watchdog_trips->Increment();
      obs::Span("hv", "supervisor.watchdog", 'i');
      break;
    default: break;
  }

  // kResourceExhausted (step budget) is a *scored* outcome, not a lost run:
  // the enforcer synthesized the kWatchdog failure the verdict layer knows
  // how to discount.
  if (er.status.ok() || er.status.code() == StatusCode::kResourceExhausted) {
    ++budget_.completed;
    m.completed->Increment();
    return er;
  }
  ++budget_.exhausted;
  m.exhausted->Increment();
  obs::Span("hv", "supervisor.exhausted", 'i').Arg("status", er.status.ToString());
  obs::PublishDiagEvent(options_.event_scope, obs::DiagPhase::kSupervision,
                        "supervisor.exhausted", er.status.ToString());
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
