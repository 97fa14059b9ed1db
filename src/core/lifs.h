// Least Interleaving First Search (§3.3).
//
// LIFS reproduces a reported concurrency failure by exploring interleavings
// of *conflicting* instructions, fewest-preemptions-first:
//
//   k = 0: every sequential order of the slice threads. These runs double as
//          discovery: they populate the knowledge base of memory-accessing
//          instructions per thread (the kcov-assisted disassembly of §4.3).
//   k = 1, 2, ...: schedules with k preemption points. Candidate points are
//          restricted to instructions whose address another thread is known
//          to access conflictingly — the DPOR-inspired pruning — and are
//          tried front-to-back. Knowledge grows across runs, so instructions
//          revealed by race-steered control flows join the search space
//          dynamically.
//
// The search stops at the first run whose failure matches the reported
// symptom; its totally ordered trace is the failure-causing instruction
// sequence handed to Causality Analysis, together with every data race found
// in it (including "phantom" races against instructions the failure
// preempted — e.g. the B17 => A12 race of Figure 6 where A12 never executed
// in the failing run but is known from complete runs).

#ifndef SRC_CORE_LIFS_H_
#define SRC_CORE_LIFS_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/analysis/races.h"
#include "src/hv/diag_context.h"
#include "src/hv/enforcer.h"
#include "src/hv/supervisor.h"
#include "src/sim/kernel.h"
#include "src/util/status.h"

namespace aitia {

struct LifsOptions {
  int max_interleavings = 3;
  int64_t max_schedules = 20000;
  // IRQ sources to consider during the search; empty disables injection.
  std::vector<IrqLine> irq_lines;
  // Disables the conflict-candidate restriction (ablation knob): every
  // memory-accessing instruction becomes a preemption candidate.
  bool dpor_pruning = true;
  // The reported symptom; unset accepts any failure except the watchdog.
  std::optional<Failure> target;
  // Softer matcher: accept any failure of this type (used when only the
  // crash-report class is known). Ignored when `target` is set.
  std::optional<FailureType> target_type;
  int64_t max_steps_per_run = 200000;
  // Record every executed schedule in `LifsResult::explored`, each flagged
  // when its run's access trace equals an earlier run's (Figure 5, the
  // explored-order goldens). Only this option fingerprints the runs' traces.
  bool keep_explored = false;
};

struct ExploredSchedule {
  PreemptionSchedule schedule;
  int interleavings = 0;
  bool failed = false;
  bool matched = false;
  bool equivalent_to_earlier = false;  // fingerprint-identical outcome
};

// One memory-accessing dynamic instruction in the knowledge base, as first
// observed.
struct KnownAccess {
  DynInstr di;
  Addr addr = 0;
  Addr len = 1;
  bool write = false;
  int64_t first_pos = 0;  // discovery position within its thread
};

// The preemption candidates of one depth pass, earliest-discovered first:
// every known access, or with `dpor_pruning` only those that overlap an
// access of another thread with at least one of the two writing.
// O(N log N) in the number of known accesses.
std::vector<KnownAccess> ConflictCandidates(std::vector<KnownAccess> known, bool dpor_pruning);

struct LifsResult {
  bool reproduced = false;
  std::optional<Failure> failure;
  RunResult failing_run;
  // The schedule that reproduced the failure.
  PreemptionSchedule failing_schedule;
  // Data races in the failure-causing sequence.
  RaceAnalysis races;
  // Races whose second side is a known-but-unexecuted instruction (the
  // failure stopped its thread first). `second.seq` is synthetic, past the
  // end of the trace.
  std::vector<RacePair> phantom_races;
  // Complete per-thread instruction streams from non-failing runs; Causality
  // Analysis splices these when flipping phantom races.
  std::map<ThreadId, std::vector<ExecEvent>> reference_streams;
  // Hardware-IRQ contexts present in the failing run (thread id -> handler
  // program and argument) for replay during the diagnosing stage.
  std::map<ThreadId, std::pair<ProgramId, Word>> irq_threads;

  int interleaving_count = 0;
  int64_t schedules_executed = 0;
  int64_t schedules_pruned = 0;  // skipped as equivalent before running
  // Non-ok when the search was cut short (the diagnosis's deadline or cancel
  // probe) or could not run at all (kInvalidArgument: the setup phase
  // faulted or outran its step budget); `reproduced` stays the primary
  // signal — status explains *why* it is false.
  Status status;
  // Runs lost to supervision (deadline, cancellation, watchdog); the search
  // skips them.
  int64_t aborted_runs = 0;
  // Supervision accounting across all runs of this search.
  RunBudget budget;
  double seconds = 0;
  // Wall-clock split of `seconds`: the discovery passes (sequential orders
  // plus one-shot IRQ probes) vs the depth-k frontier passes. The bench and
  // the metrics registry report this breakdown per phase.
  double discovery_seconds = 0;
  double depth_seconds = 0;
  std::vector<ThreadId> slice_tids;
  std::vector<ExploredSchedule> explored;  // populated iff keep_explored
};

class Lifs {
 public:
  // `ctx` (not owned) is the diagnosis the search belongs to (see
  // src/hv/diag_context.h); without one it uses a fresh context of its own.
  Lifs(const KernelImage* image, std::vector<ThreadSpec> slice, std::vector<ThreadSpec> setup,
       LifsOptions options, DiagContext* ctx = nullptr);

  LifsResult Run();

 private:
  // Generates one search level's candidate schedules in canonical order
  // (tuples lexicographic front-to-back, then base orders).
  class PassFrontier;
  // A frontier is any generator yielding candidate schedules in canonical
  // order; nullopt means exhausted.
  using FrontierFn = std::function<std::optional<PreemptionSchedule>()>;

  bool MatchesTarget(const std::optional<Failure>& failure) const;
  // Runs one schedule, learns from it, records its explored entry (under
  // keep_explored), and finalizes on a symptom match. Returns true if the
  // failure was reproduced (result_ is then final).
  bool Execute(const PreemptionSchedule& schedule, int interleavings);
  // Walks one frontier in order to exhaustion, a match, or a budget cut.
  // Returns true if the failure was reproduced.
  bool RunFrontier(const FrontierFn& next, int interleavings);
  // Adds the run's unseen accesses to the knowledge base and, for a clean
  // complete run, keeps each thread's stream that outgrows its reference.
  // O(trace length).
  void Learn(const RunResult& run);
  void FinalizeFailingRun(const RunResult& run, const PreemptionSchedule& schedule,
                          int interleavings);

  // True when the search must stop (schedule budget, or the diagnosis was
  // interrupted).
  bool SearchCutShort();
  // The search proper; Run() wraps it to finalize budget accounting.
  LifsResult RunSearch();

  const KernelImage* image_;
  std::vector<ThreadSpec> slice_;
  std::vector<ThreadSpec> setup_;
  LifsOptions options_;
  std::unique_ptr<DiagContext> own_ctx_;  // set when the caller passed none
  DiagContext* ctx_;
  Supervisor supervisor_;

  // Known accesses per thread in discovery order, and the set of their
  // dynamic instructions for the seen-check.
  std::map<ThreadId, std::vector<KnownAccess>> knowledge_;
  std::unordered_set<DynInstr> known_instrs_;
  std::set<std::string> fingerprints_;  // keep_explored only
  LifsResult result_;
};

}  // namespace aitia

#endif  // SRC_CORE_LIFS_H_
