// Schedules the AITIA hypervisor can enforce (§4.3-4.5).
//
// Two forms exist, matching the paper's two stages:
//
// - PreemptionSchedule (reproducing stage / LIFS): a base thread order plus a
//   list of scheduling points. "Preempt thread T right after it retires
//   dynamic instruction D, park it on the trampoline, and switch to thread
//   S." Parked threads resume in park order once nothing else can run.
//
// - TotalOrderSchedule (diagnosing stage / Causality Analysis): the exact
//   sequence of dynamic instructions the kernel must retire. The enforcer
//   replays it entry by entry; a thread whose control flow deviates from the
//   sequence (a race-steered control flow, §3.4) is parked, its remaining
//   entries are dropped and reported as "disappeared".

#ifndef SRC_HV_SCHEDULE_H_
#define SRC_HV_SCHEDULE_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/types.h"

namespace aitia {

struct PreemptPoint {
  // The dynamic instruction the preemption keys on.
  DynInstr after;
  // If true, the thread parks right *before* executing the instruction (the
  // hypervisor's breakpoint-hit semantics, Figure 8); otherwise right after
  // it retires.
  bool before = false;
  // Thread to switch to; kNoThread lets the base order decide.
  ThreadId switch_to = kNoThread;
  // If set, a hardware-IRQ handler running this program is injected at the
  // point (VT-x-style injection, the paper's §4.6 future work) and control
  // switches to it; `switch_to` is ignored.
  ProgramId inject_irq = kNoProgram;
  Word irq_arg = 0;
};

struct PreemptionSchedule {
  // Ranking of the initial threads (first entry runs first). Threads spawned
  // at runtime rank after all base threads, in spawn order.
  std::vector<ThreadId> base_order;
  std::vector<PreemptPoint> points;

  std::string ToString() const;
};

struct TotalOrderSchedule {
  std::vector<DynInstr> sequence;
  // Base order used to drain threads once the sequence is exhausted or
  // entries disappeared.
  std::vector<ThreadId> base_order;
  // Hardware-IRQ contexts of the recorded run: thread id -> (handler
  // program, argument). The enforcer re-injects them on first reference in
  // the sequence, so replayed thread ids line up with the recording.
  std::map<ThreadId, std::pair<ProgramId, Word>> irq_threads;

  std::string ToString() const;
};

}  // namespace aitia

#endif  // SRC_HV_SCHEDULE_H_
