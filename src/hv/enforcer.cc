#include "src/hv/enforcer.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "src/util/log.h"
#include "src/util/strings.h"

namespace aitia {
namespace {

// Thread ranking shared with SeqPolicy semantics: base threads in the given
// order, spawned threads after them by id.
int64_t RankOf(const std::vector<ThreadId>& base_order, ThreadId tid) {
  for (size_t i = 0; i < base_order.size(); ++i) {
    if (base_order[i] == tid) {
      return static_cast<int64_t>(i);
    }
  }
  return static_cast<int64_t>(base_order.size()) + tid;
}

ThreadId MinRankRunnable(const KernelSim& kernel, const std::vector<ThreadId>& base_order) {
  std::vector<ThreadId> runnable = kernel.RunnableThreads();
  if (runnable.empty()) {
    return kNoThread;
  }
  return *std::min_element(runnable.begin(), runnable.end(), [&](ThreadId a, ThreadId b) {
    return RankOf(base_order, a) < RankOf(base_order, b);
  });
}

// How often the interrupt hook (wall-clock deadline) is polled, in steps.
// Cheap enough to keep deadline overshoot in the microseconds.
constexpr int64_t kInterruptPollSteps = 256;

// Shared supervision bookkeeping for both run modes: interrupt polling and
// the no-progress (livelock) watchdog.
class RunSupervision {
 public:
  explicit RunSupervision(const EnforceOptions& options) : options_(options) {}

  // `progress` is any monotone marker of schedule progress; `status` is set
  // and true returned when the run must stop.
  bool ShouldAbort(int64_t steps, int64_t progress, Status& status) {
    if (options_.interrupt && steps % kInterruptPollSteps == 0) {
      Status s = options_.interrupt();
      if (!s.ok()) {
        status = std::move(s);
        return true;
      }
    }
    if (options_.stall_limit > 0) {
      if (progress != last_progress_) {
        last_progress_ = progress;
        progress_step_ = steps;
      } else if (steps - progress_step_ > options_.stall_limit) {
        status = Status::Aborted("watchdog: schedule made no progress for " +
                                 std::to_string(steps - progress_step_) + " steps");
        return true;
      }
    }
    return false;
  }

 private:
  const EnforceOptions& options_;
  int64_t last_progress_ = -1;
  int64_t progress_step_ = 0;
};

// Synthesizes a deadlock failure if the run stalled with blocked threads
// (mirrors RunToCompletion's end-of-run handling).
void AnnotateStall(const KernelSim& kernel, RunResult& r) {
  if (r.failure.has_value() || r.all_exited) {
    return;
  }
  ThreadId victim = kNoThread;
  for (ThreadId tid = 0; tid < kernel.thread_count(); ++tid) {
    if (kernel.thread(tid).state == ThreadState::kBlocked) {
      victim = tid;
    } else if (kernel.thread(tid).state == ThreadState::kParked ||
               kernel.thread(tid).runnable()) {
      return;  // something could still run; not a deadlock
    }
  }
  if (victim == kNoThread) {
    return;
  }
  const ThreadContext& t = kernel.thread(victim);
  Failure f;
  f.type = FailureType::kDeadlock;
  f.tid = victim;
  f.at = {t.prog, t.pc};
  f.addr = t.blocked_on;
  f.message = "enforced schedule deadlocked";
  r.failure = f;
}

}  // namespace

std::string PreemptionSchedule::ToString() const {
  std::vector<std::string> parts;
  for (const auto& p : points) {
    std::string part =
        StrFormat("T%d@%s(%d:%d)#%d->%d", p.after.tid, p.before ? "pre" : "post",
                  p.after.at.prog, p.after.at.pc, p.after.occurrence, p.switch_to);
    if (p.inject_irq != kNoProgram) {
      part += StrFormat("+irq(%d,%lld)", p.inject_irq, static_cast<long long>(p.irq_arg));
    }
    parts.push_back(std::move(part));
  }
  std::string base;
  for (ThreadId t : base_order) {
    base += StrFormat("%d,", t);
  }
  return "base[" + base + "] points{" + StrJoin(parts, " ") + "}";
}

std::string TotalOrderSchedule::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(sequence.size());
  for (const auto& d : sequence) {
    parts.push_back(StrFormat("T%d(%d:%d)#%d", d.tid, d.at.prog, d.at.pc, d.occurrence));
  }
  return StrJoin(parts, " ");
}

EnforceResult Enforcer::RunPreemption(const std::vector<ThreadSpec>& threads,
                                      const PreemptionSchedule& schedule,
                                      const std::vector<ThreadSpec>& setup,
                                      const EnforceOptions& options) {
  const int64_t max_steps = options.max_steps;
  EnforceResult result;

  KernelSim kernel(image_, threads, setup);
  if (!kernel.setup_status().ok()) {
    result.status = kernel.setup_status();
    return result;
  }

  std::vector<bool> consumed(schedule.points.size(), false);
  std::vector<ThreadId> park_fifo;
  ThreadId current = kNoThread;
  int64_t steps = 0;
  int64_t points_fired = 0;
  Watchpoints wps;
  RunSupervision supervision(options);

  kernel.set_observer([&](const ExecEvent& e) { wps.Observe(e); });

  auto pick = [&]() -> ThreadId {
    ThreadId tid = MinRankRunnable(kernel, schedule.base_order);
    if (tid != kNoThread) {
      return tid;
    }
    while (!park_fifo.empty()) {
      ThreadId parked = park_fifo.front();
      park_fifo.erase(park_fifo.begin());
      kernel.Unpark(parked);
      if (kernel.thread(parked).runnable()) {
        return parked;
      }
    }
    return kNoThread;
  };

  while (!kernel.failure().has_value() && steps < max_steps) {
    // Schedule progress = retired events + fired points; a loop of blocked
    // steps that fires nothing eventually trips the watchdog.
    if (supervision.ShouldAbort(
            steps, static_cast<int64_t>(kernel.trace().size()) + points_fired,
            result.status)) {
      break;
    }
    if (current == kNoThread || !kernel.thread(current).runnable()) {
      current = pick();
      if (current == kNoThread) {
        break;
      }
    }
    std::optional<DynInstr> dyn = kernel.NextDynInstr(current);

    // Breakpoint-hit semantics: a "before" point parks the thread without
    // retiring the instruction, arming a watchpoint over the address the
    // instruction is about to touch (Figure 8).
    bool parked_before = false;
    for (size_t pi = 0; pi < schedule.points.size(); ++pi) {
      const PreemptPoint& point = schedule.points[pi];
      if (consumed[pi] || !point.before || !dyn.has_value() || !(point.after == *dyn)) {
        continue;
      }
      consumed[pi] = true;
      ++points_fired;
      if (auto peek = kernel.PeekAccess(current)) {
        wps.Arm(*dyn, peek->addr, peek->len, peek->is_write);
      }
      kernel.Park(current);
      park_fifo.push_back(current);
      ThreadId target = point.inject_irq != kNoProgram
                            ? kernel.InjectIrq(point.inject_irq, point.irq_arg)
                            : point.switch_to;
      current = (target != kNoThread && target < kernel.thread_count() &&
                 kernel.thread(target).runnable())
                    ? target
                    : kNoThread;
      parked_before = true;
      break;
    }
    if (parked_before) {
      continue;
    }

    bool retired = kernel.Step(current);
    ++steps;
    if (!retired) {
      current = kNoThread;  // blocked on a lock; reschedule
      continue;
    }
    if (kernel.failure().has_value()) {
      break;
    }
    for (size_t pi = 0; pi < schedule.points.size(); ++pi) {
      if (consumed[pi] || schedule.points[pi].before ||
          !(schedule.points[pi].after == *dyn)) {
        continue;
      }
      consumed[pi] = true;
      ++points_fired;
      // Arm a watchpoint over what the preempted instruction touched, as the
      // hypervisor does right before resuming the other thread (Figure 8).
      const ExecEvent& last = kernel.trace().back();
      if (last.is_access) {
        wps.Arm(last.di, last.addr, last.len, last.is_write);
      }
      kernel.Park(current);
      park_fifo.push_back(current);
      ThreadId target =
          schedule.points[pi].inject_irq != kNoProgram
              ? kernel.InjectIrq(schedule.points[pi].inject_irq, schedule.points[pi].irq_arg)
              : schedule.points[pi].switch_to;
      current = (target != kNoThread && target < kernel.thread_count() &&
                 kernel.thread(target).runnable())
                    ? target
                    : kNoThread;
      break;
    }
  }

  for (size_t pi = 0; pi < schedule.points.size(); ++pi) {
    if (!consumed[pi]) {
      result.unfired_points.push_back(schedule.points[pi].after);
    }
  }
  result.steps = steps;
  result.run = kernel.Collect();
  if (result.status.ok()) {
    if (steps >= max_steps && !result.run.failure.has_value()) {
      Failure f;
      f.type = FailureType::kWatchdog;
      f.message = "preemption schedule exceeded step budget";
      result.run.failure = f;
      result.status = Status::ResourceExhausted("step budget exhausted");
    }
    AnnotateStall(kernel, result.run);
  }
  result.watch_hits = wps.hits();
  return result;
}

EnforceResult Enforcer::RunTotalOrder(const std::vector<ThreadSpec>& threads,
                                      const TotalOrderSchedule& schedule,
                                      const std::vector<ThreadSpec>& setup,
                                      const EnforceOptions& options) {
  const int64_t max_steps = options.max_steps;
  EnforceResult result;

  KernelSim kernel(image_, threads, setup);
  if (!kernel.setup_status().ok()) {
    result.status = kernel.setup_status();
    return result;
  }

  std::set<ThreadId> diverged;
  std::set<ThreadId> injected_irqs;
  size_t i = 0;
  int64_t steps = 0;
  RunSupervision supervision(options);

  while (!kernel.failure().has_value() && steps < max_steps && i < schedule.sequence.size()) {
    // Progress = the schedule index: a liveness drain that spins a lock
    // holder without ever unblocking the scheduled thread is a livelock the
    // step budget alone would take orders of magnitude longer to catch.
    if (supervision.ShouldAbort(steps, static_cast<int64_t>(i), result.status)) {
      break;
    }
    const DynInstr& want = schedule.sequence[i];
    if (diverged.count(want.tid) != 0) {
      result.disappeared.push_back(want);
      ++i;
      continue;
    }
    if (want.tid >= kernel.thread_count()) {
      // Hardware-IRQ contexts of the recording are re-injected on first
      // reference (§4.6 extension).
      auto irq = schedule.irq_threads.find(want.tid);
      if (irq != schedule.irq_threads.end() && injected_irqs.count(want.tid) == 0) {
        injected_irqs.insert(want.tid);
        ThreadId id = kernel.InjectIrq(irq->second.first, irq->second.second);
        if (id == want.tid) {
          continue;  // retry the entry against the freshly injected context
        }
        // Spawn interleaving diverged; the entry cannot be honored.
      }
      // The thread was spawned in the original run but does not exist (yet or
      // at all) here — a race-steered control flow removed its spawn.
      result.disappeared.push_back(want);
      ++i;
      continue;
    }
    std::optional<DynInstr> dyn = kernel.NextDynInstr(want.tid);
    if (!dyn.has_value()) {
      // Thread already exited: the entry disappeared.
      result.disappeared.push_back(want);
      ++i;
      continue;
    }
    if (!(*dyn == want)) {
      // Race-steered control flow: this thread will never reach the expected
      // instruction next. Park it and drop its remaining entries.
      diverged.insert(want.tid);
      kernel.Park(want.tid);
      continue;
    }
    bool retired = kernel.Step(want.tid);
    ++steps;
    if (retired) {
      ++i;
      continue;
    }
    // The expected thread blocked on a lock the schedule did not anticipate
    // (the flip created new contention). Preserve liveness by letting the
    // lock holder drain — these steps are recorded as deviations.
    const ThreadContext& t = kernel.thread(want.tid);
    Word holder_word = kernel.memory().Peek(t.blocked_on);
    ThreadId holder = static_cast<ThreadId>(holder_word - 1);
    if (holder_word <= 0 || holder == want.tid || holder >= kernel.thread_count() ||
        !kernel.thread(holder).runnable()) {
      break;  // unresolvable: deadlock annotated below
    }
    kernel.Step(holder);
    ++steps;
    ++result.deviations;
  }
  while (i < schedule.sequence.size()) {
    result.disappeared.push_back(schedule.sequence[i++]);
  }

  // Drain phase: release parked threads and run everything to completion in
  // base order. The stall watchdog is moot here (every drain step retires),
  // but deadlines and cancellation stay live.
  if (result.status.ok()) {
    for (ThreadId tid = 0; tid < kernel.thread_count(); ++tid) {
      kernel.Unpark(tid);
    }
    while (!kernel.failure().has_value() && steps < max_steps) {
      if (supervision.ShouldAbort(
              steps, static_cast<int64_t>(i + kernel.trace().size()), result.status)) {
        break;
      }
      ThreadId tid = MinRankRunnable(kernel, schedule.base_order);
      if (tid == kNoThread) {
        break;
      }
      kernel.Step(tid);
      ++steps;
      // Threads spawned during the drain are already covered by MinRankRunnable.
      for (ThreadId t2 = 0; t2 < kernel.thread_count(); ++t2) {
        if (kernel.thread(t2).state == ThreadState::kParked) {
          kernel.Unpark(t2);
        }
      }
    }
  }

  result.steps = steps;
  result.run = kernel.Collect();
  if (result.status.ok()) {
    if (steps >= max_steps && !result.run.failure.has_value()) {
      Failure f;
      f.type = FailureType::kWatchdog;
      f.message = "total-order schedule exceeded step budget";
      result.run.failure = f;
      result.status = Status::ResourceExhausted("step budget exhausted");
    }
    AnnotateStall(kernel, result.run);
  }
  return result;
}

}  // namespace aitia
