#include "src/hv/supervisor.h"

#include <chrono>
#include <thread>
#include <utility>

#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/log.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"

namespace aitia {
namespace {

struct SupervisorMetrics {
  obs::Counter* runs;
  obs::Counter* attempts;
  obs::Counter* completed;
  obs::Counter* retries;
  obs::Counter* exhausted;
  obs::Counter* deadline_expirations;
  obs::Counter* watchdog_trips;
  obs::Counter* injected_faults;
  obs::Counter* steps;
  obs::Histogram* run_steps;

  static const SupervisorMetrics& Get() {
    static const SupervisorMetrics* const m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      auto* sm = new SupervisorMetrics();
      sm->runs = reg.GetCounter("supervisor.runs");
      sm->attempts = reg.GetCounter("supervisor.attempts");
      sm->completed = reg.GetCounter("supervisor.completed");
      sm->retries = reg.GetCounter("supervisor.retries");
      sm->exhausted = reg.GetCounter("supervisor.exhausted");
      sm->deadline_expirations = reg.GetCounter("supervisor.deadline_expirations");
      sm->watchdog_trips = reg.GetCounter("supervisor.watchdog_trips");
      sm->injected_faults = reg.GetCounter("supervisor.injected_faults");
      sm->steps = reg.GetCounter("supervisor.steps");
      sm->run_steps =
          reg.GetHistogram("supervisor.run_steps", {100, 1000, 10000, 100000, 1000000});
      return sm;
    }();
    return *m;
  }
};

void PublishBudgetDelta(const RunBudget& delta) {
  const SupervisorMetrics& m = SupervisorMetrics::Get();
  m.runs->Add(delta.runs);
  m.attempts->Add(delta.attempts);
  m.completed->Add(delta.completed);
  m.retries->Add(delta.retries);
  m.exhausted->Add(delta.exhausted);
  m.deadline_expirations->Add(delta.deadline_expirations);
  m.watchdog_trips->Add(delta.watchdog_trips);
  m.injected_faults->Add(delta.injected_faults);
  m.steps->Add(delta.steps);
}

}  // namespace

void RunBudget::Merge(const RunBudget& other) {
  runs += other.runs;
  attempts += other.attempts;
  completed += other.completed;
  retries += other.retries;
  exhausted += other.exhausted;
  deadline_expirations += other.deadline_expirations;
  watchdog_trips += other.watchdog_trips;
  injected_faults += other.injected_faults;
  steps += other.steps;
  backoff_ms += other.backoff_ms;
}

std::string RunBudget::ToString() const {
  return StrFormat(
      "runs=%lld attempts=%lld completed=%lld retries=%lld exhausted=%lld "
      "deadlines=%lld watchdogs=%lld faults=%lld steps=%lld",
      static_cast<long long>(runs), static_cast<long long>(attempts),
      static_cast<long long>(completed), static_cast<long long>(retries),
      static_cast<long long>(exhausted), static_cast<long long>(deadline_expirations),
      static_cast<long long>(watchdog_trips), static_cast<long long>(injected_faults),
      static_cast<long long>(steps));
}

RunBudget Supervisor::budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_;
}

StatusOr<EnforceResult> Supervisor::Supervise(const RunFn& run, uint64_t nonce) {
  // Accounting accumulates in a local delta and lands in the shared budget
  // under a single lock per logical run: parallel LIFS frontier workers and
  // causality diagnosers all funnel through one Supervisor instance, so the
  // budget mutex sits on their hot path.
  RunBudget delta;
  StatusOr<EnforceResult> out = SuperviseAccounted(run, nonce, delta);
  PublishBudgetDelta(delta);
  std::lock_guard<std::mutex> lock(mu_);
  budget_.Merge(delta);
  return out;
}

StatusOr<EnforceResult> Supervisor::SuperviseAccounted(const RunFn& run, uint64_t nonce,
                                                       RunBudget& delta) {
  ++delta.runs;
  const int max_attempts = options_.max_attempts < 1 ? 1 : options_.max_attempts;
  Status last;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (options_.cancel && options_.cancel()) {
      ++delta.exhausted;
      return Status::Cancelled("run cancelled before attempt");
    }
    FaultInjector injector(options_.faults, FaultNonce(nonce, attempt));

    EnforceOptions eo;
    eo.max_steps = options_.max_steps;
    eo.stall_limit = options_.stall_limit;
    eo.faults = options_.faults.enabled() ? &injector : nullptr;
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
    ++delta.attempts;
    delta.steps += er.steps;
    delta.injected_faults += injector.counters().total();
    SupervisorMetrics::Get().run_steps->Record(er.steps);
    if (const int64_t faults = injector.counters().total(); faults > 0) {
      obs::Span("hv", "supervisor.faults", 'i').Arg("nonce", nonce).Arg("count", faults);
    }
    switch (er.status.code()) {
      case StatusCode::kDeadlineExceeded:
        ++delta.deadline_expirations;
        obs::Span("hv", "supervisor.deadline", 'i').Arg("nonce", nonce);
        break;
      case StatusCode::kAborted:
        ++delta.watchdog_trips;
        obs::Span("hv", "supervisor.watchdog", 'i').Arg("nonce", nonce);
        break;
      default: break;
    }

    // kResourceExhausted (step budget) is a *scored* outcome, not a lost
    // run: the enforcer synthesized the kWatchdog failure the verdict layer
    // knows how to discount, and a deterministic re-run would only spend the
    // budget again.
    if (er.status.ok() || er.status.code() == StatusCode::kResourceExhausted) {
      ++delta.completed;
      return er;
    }
    last = er.status;

    const bool retryable = er.status.code() == StatusCode::kUnavailable ||
                           er.status.code() == StatusCode::kAborted;
    if (!retryable || attempt + 1 >= max_attempts) {
      break;
    }
    ++delta.retries;
    obs::Span("hv", "supervisor.retry", 'i')
        .Arg("nonce", nonce)
        .Arg("attempt", attempt + 1)
        .Arg("status", er.status.ToString());
    obs::PublishDiagEvent(options_.event_scope, obs::DiagPhase::kSupervision,
                          "supervisor.retry", er.status.ToString(),
                          {{"nonce", static_cast<int64_t>(nonce)},
                           {"attempt", attempt + 1}});
    if (options_.backoff_ms_cap > 0) {
      // Deterministic seeded jitter: the sleep length is a pure function of
      // (retry_seed, nonce, attempt), so a replayed diagnosis spends the
      // same backoff schedule.
      Rng jitter(options_.retry_seed ^ FaultNonce(nonce, attempt));
      uint64_t ms = jitter.NextBelow(options_.backoff_ms_cap + 1);
      delta.backoff_ms += static_cast<int64_t>(ms);
      if (ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      }
    }
    AITIA_LOG(kDebug) << "supervisor: retrying run nonce=" << nonce << " after "
                      << er.status.ToString() << " (attempt " << attempt + 1 << "/"
                      << max_attempts << ")";
  }
  ++delta.exhausted;
  if (last.ok()) {
    last = Status::Internal("supervision exhausted without a status");
  }
  obs::Span("hv", "supervisor.exhausted", 'i')
      .Arg("nonce", nonce)
      .Arg("status", last.ToString());
  obs::PublishDiagEvent(options_.event_scope, obs::DiagPhase::kSupervision,
                        "supervisor.exhausted", last.ToString(),
                        {{"nonce", static_cast<int64_t>(nonce)}});
  return last;
}

StatusOr<EnforceResult> Supervisor::RunPreemption(const std::vector<ThreadSpec>& threads,
                                                  const PreemptionSchedule& schedule,
                                                  const std::vector<ThreadSpec>& setup,
                                                  uint64_t nonce) {
  return Supervise(
      [&](const EnforceOptions& eo) {
        Enforcer enforcer(image_);
        return enforcer.RunPreemption(threads, schedule, setup, eo);
      },
      nonce);
}

StatusOr<EnforceResult> Supervisor::RunTotalOrder(const std::vector<ThreadSpec>& threads,
                                                  const TotalOrderSchedule& schedule,
                                                  const std::vector<ThreadSpec>& setup,
                                                  uint64_t nonce) {
  return Supervise(
      [&](const EnforceOptions& eo) {
        Enforcer enforcer(image_);
        return enforcer.RunTotalOrder(threads, schedule, setup, eo);
      },
      nonce);
}

}  // namespace aitia
