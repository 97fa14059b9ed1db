// The kernel simulator.
//
// KernelSim interprets scenario programs one instruction at a time under the
// full control of a scheduler (a SchedulerPolicy or the hv::Enforcer). It is
// sequentially consistent by construction — the paper's memory-model
// assumption (§3.2) — and deterministic: a schedule uniquely determines the
// run. "Rebooting the VM" (§5.1) is re-constructing a KernelSim, which is
// cheap.

#ifndef SRC_SIM_KERNEL_H_
#define SRC_SIM_KERNEL_H_

#include <deque>
#include <set>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/sim/access.h"
#include "src/sim/failure.h"
#include "src/sim/memory.h"
#include "src/sim/program.h"
#include "src/sim/thread.h"
#include "src/util/status.h"

namespace aitia {

// Everything a finished run yields; the input to race extraction
// (src/analysis/races.h), LIFS, and Causality Analysis.
struct RunResult {
  std::optional<Failure> failure;
  std::vector<ExecEvent> trace;
  std::vector<SpawnEdge> spawns;
  // Metadata for every thread that existed, indexed by ThreadId.
  struct ThreadInfo {
    std::string name;
    ProgramId prog = kNoProgram;
    ThreadKind kind = ThreadKind::kSyscall;
    ThreadId parent = kNoThread;
    Word arg = 0;
  };
  std::vector<ThreadInfo> threads;
  bool all_exited = false;
  int64_t steps = 0;

  bool failed() const { return failure.has_value(); }
  // Number of shared-memory-accessing instruction instances in the trace
  // (the §5.2 conciseness statistic).
  int64_t AccessCount() const;
};

class KernelSim {
 public:
  // `setup` threads (slice prologue, e.g. the open() paired with a racing
  // close(), §4.2) run to completion sequentially during construction with
  // event recording disabled: their effects are visible in memory, but they
  // produce no trace events and therefore no spurious races against the
  // concurrent threads. `initial` threads are created afterwards. A setup
  // phase that faults, outruns its step budget or blocks for good is
  // recorded in setup_status(), never aborted on.
  KernelSim(const KernelImage* image, const std::vector<ThreadSpec>& initial,
            const std::vector<ThreadSpec>& setup = {});

  KernelSim(const KernelSim&) = delete;
  KernelSim& operator=(const KernelSim&) = delete;

  const KernelImage& image() const { return *image_; }

  // kInvalidArgument when the setup phase faulted (failure() then holds the
  // fault), exceeded its step budget, or stopped with a setup thread that
  // can never exit (blocked on a lock); such a sim must not be run.
  const Status& setup_status() const { return setup_status_; }

  // --- thread inspection ----------------------------------------------------
  int thread_count() const { return static_cast<int>(threads_.size()); }
  // ThreadId of the first `initial` (concurrent) thread; setup threads and
  // anything they spawned occupy the ids below it.
  ThreadId first_initial_thread() const { return setup_thread_count_; }
  const ThreadContext& thread(ThreadId tid) const { return threads_[static_cast<size_t>(tid)]; }
  std::vector<ThreadId> RunnableThreads() const;
  bool AllExited() const;
  // True when nothing can make progress: failure reported, or all exited,
  // or every unfinished thread is blocked/parked.
  bool Done() const;

  // The instruction `tid` would execute next (nullopt if not runnable).
  std::optional<InstrAddr> NextInstr(ThreadId tid) const;
  // Dynamic identity of that next instruction (occurrence included).
  std::optional<DynInstr> NextDynInstr(ThreadId tid) const;

  // What the next instruction of `tid` would access, computed from the
  // current register file without executing — the hypervisor's "disassemble
  // the breakpointed instruction to find the referenced address" (§4.3).
  struct PeekedAccess {
    Addr addr = 0;
    Addr len = 1;
    bool is_write = false;
  };
  std::optional<PeekedAccess> PeekAccess(ThreadId tid) const;

  // --- execution --------------------------------------------------------------
  // Executes one instruction of `tid`. Returns true if an instruction
  // retired; returns false if the thread could not run (blocked on a lock —
  // its state is updated — or not runnable). Must not be called after a
  // failure was reported.
  bool Step(ThreadId tid);

  // Hypervisor trampoline control (§4.4): a parked thread never runs until
  // unparked, but stays "responsive" (it is not counted as deadlocked).
  void Park(ThreadId tid);
  void Unpark(ThreadId tid);

  // Injects a hardware-IRQ handler context (the paper's §4.6 future work,
  // realized via the VT-x-style injection the hypervisor performs for
  // system calls). The handler becomes a runnable kHardIrq thread with no
  // happens-before edge to any other context.
  ThreadId InjectIrq(ProgramId handler, Word arg);

  // --- results ----------------------------------------------------------------
  const std::optional<Failure>& failure() const { return failure_; }
  const std::vector<ExecEvent>& trace() const { return trace_; }

  // Runs the end-of-run leak detector (only meaningful when all threads
  // exited without another failure), then moves the results out.
  RunResult Collect();

  // Observation hook: invoked after every retired event — the watchpoint
  // trap surface used by hv::Enforcer.
  void set_observer(std::function<void(const ExecEvent&)> observer) {
    observer_ = std::move(observer);
  }

  Memory& memory() { return memory_; }
  const Memory& memory() const { return memory_; }

 private:
  ThreadContext& Mut(ThreadId tid) { return threads_[static_cast<size_t>(tid)]; }

  // Records one retired instruction; returns the event seq.
  int64_t Record(ThreadContext& t, const Instr& instr, bool is_access, bool is_write,
                 Addr addr, Addr len, Word value);
  void Fault(FailureType type, const ThreadContext& t, const Instr& instr, Addr addr,
             int64_t seq);
  ThreadId Spawn(const ThreadContext& parent, ProgramId prog, Word arg, ThreadKind kind,
                 int64_t seq);
  void WakeBlockedOn(Addr lock_addr);
  // Removes `tid` from the pending IPI acknowledgements; wakes the
  // broadcaster when the set drains.
  void AckIpi(ThreadId tid);

  const KernelImage* image_;
  Memory memory_;
  // deque: Spawn() appends while Step() holds a reference to the running
  // thread's context — element addresses must stay stable.
  std::deque<ThreadContext> threads_;
  std::vector<ExecEvent> trace_;
  std::vector<SpawnEdge> spawns_;
  std::optional<Failure> failure_;
  std::function<void(const ExecEvent&)> observer_;
  int64_t next_seq_ = 0;
  int spawn_counter_ = 0;
  bool recording_ = true;
  // Number of threads consumed by the setup phase (they stay in threads_ as
  // exited contexts so ThreadIds remain dense).
  int setup_thread_count_ = 0;
  Status setup_status_;
  // TLB shootdown state: the broadcasting thread and the contexts that have
  // not acknowledged yet.
  ThreadId ipi_broadcaster_ = kNoThread;
  std::set<ThreadId> ipi_pending_;
};

}  // namespace aitia

#endif  // SRC_SIM_KERNEL_H_
