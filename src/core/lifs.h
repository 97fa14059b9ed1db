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
//
// With LifsOptions::workers > 1 the frontier of each search level is
// executed in parallel batches (every run is an independent deterministic
// simulation) and merged back in canonical order at batch barriers, so the
// result — winner, races, counters — is bit-identical to the serial walk.

#ifndef SRC_CORE_LIFS_H_
#define SRC_CORE_LIFS_H_

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/races.h"
#include "src/hv/enforcer.h"
#include "src/hv/supervisor.h"
#include "src/sim/kernel.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"

namespace aitia {

class ThreadPool;

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
  // Record every explored schedule (Figure 5 benchmarks).
  bool keep_explored = false;
  // Supervised execution: per-run deadline, livelock watchdog, retries, and
  // fault plan. `supervisor.max_steps` is overridden by max_steps_per_run.
  SupervisorOptions supervisor;
  // Wall-clock deadline for the whole search; 0 disables. On expiry the
  // search stops with result.status = kDeadlineExceeded (not reproduced).
  double search_deadline_seconds = 0;
  // Parallel frontier exploration: number of worker threads executing
  // candidate schedules concurrently (0 picks the hardware concurrency,
  // 1 keeps the fully serial walk). Every run is an independent
  // deterministic simulation, so the frontier of each search level is
  // dispatched in batches across a ThreadPool and merged back in canonical
  // (fewest-preemptions, front-to-back) order — the result is bit-identical
  // to the serial search for any worker count (see DESIGN.md §9).
  size_t workers = 1;
  // Progress-event scope (src/obs/events.h): nonzero tags this search's
  // lifecycle events so a streaming subscriber sees only its own request.
  // 0 (the default) publishes nothing. Events are write-only observability;
  // the search never reads them back.
  uint64_t event_scope = 0;
};

struct ExploredSchedule {
  PreemptionSchedule schedule;
  int interleavings = 0;
  bool failed = false;
  bool matched = false;
  bool equivalent_to_earlier = false;  // fingerprint-identical outcome
};

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
  // Non-ok when the search was cut short (search deadline, cancellation) or
  // could not run at all (kInvalidArgument: the setup phase faulted or
  // outran its step budget); `reproduced` stays the primary signal — status
  // explains *why* it is false.
  Status status;
  // Runs lost to supervision (every attempt failed); the search skips them.
  int64_t aborted_runs = 0;
  // Schedules executed past the canonical stop point (parallel batches run a
  // few schedules the serial walk never reaches once the winner is found or
  // the budget expires; their results are discarded at the merge barrier).
  // Always 0 for the serial search; excluded from schedules_executed.
  int64_t speculative_runs = 0;
  // Supervision accounting across all runs of this search. Includes the
  // speculative overshoot, so parallel budgets may exceed serial ones even
  // though every other field of this result is identical.
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
  Lifs(const KernelImage* image, std::vector<ThreadSpec> slice, std::vector<ThreadSpec> setup,
       LifsOptions options);

  LifsResult Run();

 private:
  struct KnownAccess {
    DynInstr di;
    Addr addr = 0;
    Addr len = 1;
    bool write = false;
    int64_t first_pos = 0;  // discovery position within its thread
  };

  // Generates one search level's candidate schedules in the canonical
  // serial order (tuples lexicographic front-to-back, then base orders).
  class PassFrontier;
  // A frontier is any generator yielding candidate schedules in canonical
  // order; nullopt means exhausted.
  using FrontierFn = std::function<std::optional<PreemptionSchedule>()>;

  bool MatchesTarget(const std::optional<Failure>& failure) const;
  // Runs one schedule, updates knowledge; returns true if the failure was
  // reproduced (result_ is then final).
  bool Execute(const PreemptionSchedule& schedule, int interleavings);
  // Shared post-run bookkeeping: learns from the run, records fingerprints
  // and explored schedules, finalizes on a symptom match. Must be called in
  // canonical schedule order. Returns true on a match.
  bool Absorb(EnforceResult& er, const PreemptionSchedule& schedule, int interleavings,
              std::string fingerprint);
  // Shared bookkeeping for a run lost to supervision. Returns true when the
  // loss ends the search (invalid input; result_.status is then set).
  bool AbsorbLoss(const Status& status);
  // Walks one frontier to exhaustion, a match, or a budget cut. Serial when
  // `pool` is null; otherwise dispatches batches across the pool and merges
  // at batch barriers. Returns true if the failure was reproduced.
  bool RunFrontier(const FrontierFn& next, int interleavings, ThreadPool* pool);
  void Learn(const RunResult& run);
  std::vector<KnownAccess> ConflictCandidates() const;
  void FinalizeFailingRun(const RunResult& run, const PreemptionSchedule& schedule,
                          int interleavings);

  // True when the search must stop (schedule budget or search deadline).
  bool SearchCutShort();
  // The search proper; Run() wraps it to finalize budget accounting.
  LifsResult RunSearch();

  const KernelImage* image_;
  std::vector<ThreadSpec> slice_;
  std::vector<ThreadSpec> setup_;
  LifsOptions options_;
  Supervisor supervisor_;
  Stopwatch search_watch_;

  std::map<ThreadId, std::vector<KnownAccess>> knowledge_;
  std::vector<ThreadId> known_tids_;
  std::set<std::string> fingerprints_;
  std::set<std::string> tried_schedules_;
  LifsResult result_;
};

}  // namespace aitia

#endif  // SRC_CORE_LIFS_H_
