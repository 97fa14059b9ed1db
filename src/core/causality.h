// Causality Analysis (§3.4).
//
// Given LIFS's failure-causing instruction sequence and the data races found
// in it, Causality Analysis tests each race by *flipping* its interleaving
// order while keeping every other order intact, re-executing the kernel, and
// observing the outcome:
//
//   flipped run does not fail       -> the race contributes to the failure
//                                      (root cause set);
//   flipped run still fails         -> the race is benign (excluded);
//   while race R1 is flipped, some
//   root-cause race R2 never occurs -> R1 steers control flow into R2:
//                                      a causality edge R1 -> R2.
//
// Critical sections protected by a common lock flip as a unit (liveness);
// a flip that necessarily reverses a nested race is marked ambiguous when
// both turn out to be root causes (Figure 7). Flip tests are independent
// deterministic runs, so they parallelize across diagnoser workers — the
// analog of the paper's fleet of diagnosis VMs (§4.5).

#ifndef SRC_CORE_CAUSALITY_H_
#define SRC_CORE_CAUSALITY_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/analysis/triage.h"
#include "src/core/chain.h"
#include "src/core/lifs.h"
#include "src/hv/enforcer.h"
#include "src/hv/supervisor.h"
#include "src/util/status.h"

namespace aitia {

struct CausalityOptions {
  int64_t max_steps_per_run = 200000;
  size_t max_tests = 256;
  // Number of parallel diagnoser workers; 0 or 1 runs serially.
  size_t workers = 1;
  // Supervised execution of flip tests: deadline, watchdog, retries, fault
  // plan. `supervisor.max_steps` is overridden by max_steps_per_run. A flip
  // test that fails every attempt is reported kInconclusive — never benign.
  SupervisorOptions supervisor;
  // Static triage pre-filter (DESIGN.md §13): an ordered pipeline of stages
  // run over each candidate before the dynamic flip. A kProvablyBenign
  // verdict skips the re-execution and synthesizes the (proven) benign
  // outcome; everything else still flips. Empty disables the pre-filter.
  // Ignored while the supervisor's fault plan is enabled — triage proofs
  // reason about deterministic replay, and fault injection breaks that.
  analysis::TriagePipeline stages = analysis::DefaultTriagePipeline();
  // Progress-event scope (src/obs/events.h): nonzero tags triage /
  // flip-tested / verdict events for streaming subscribers; 0 publishes
  // nothing.
  uint64_t event_scope = 0;
};

enum class RaceVerdict {
  kRootCause,     // flip prevented the failure
  kBenign,        // flip left the failure intact
  kInconclusive,  // flip not enforceable, or the run budget was exhausted
  kAmbiguous,     // root cause, but entangled with a nested root cause
};

const char* RaceVerdictName(RaceVerdict verdict);

struct TestedRace {
  RacePair race;
  bool phantom = false;
  RaceVerdict verdict = RaceVerdict::kBenign;
  // Health of the flip run: non-ok when supervision exhausted its attempts
  // (deadline, livelock, lost run) and the verdict is kInconclusive.
  Status run_status;
  bool flip_still_failed = false;
  bool flip_took_effect = false;
  // Indices (into CausalityResult::tested) of races that did not occur in
  // this race's flipped run.
  std::vector<size_t> disappeared;
  // Indices of races necessarily reversed alongside this flip (nested).
  std::vector<size_t> nested;
  // Static triage outcome for this candidate (pre-filter, DESIGN.md §13).
  // kUnknown with an empty stage when the pre-filter was off or abstained.
  analysis::TriageVerdict triage_verdict = analysis::TriageVerdict::kUnknown;
  std::string triage_stage;
  std::string triage_reason;
  // True when the dynamic flip was skipped because triage proved its
  // outcome; verdict/flip bits/disappeared are then the proven prediction.
  bool flip_skipped = false;
};

struct CausalityResult {
  std::vector<TestedRace> tested;  // backward order (latest race first)
  std::vector<size_t> root_cause_indices;
  // Flip tests whose run budget was exhausted (verdict kInconclusive with a
  // non-ok run_status) — the report must surface these as unclassified.
  std::vector<size_t> inconclusive_indices;
  CausalityChain chain;
  // Dynamic flip runs actually executed (excludes pre-filtered skips);
  // schedules_executed + flips_skipped == tested.size().
  int64_t schedules_executed = 0;
  // Flip tests discharged statically by the triage pre-filter.
  int64_t flips_skipped = 0;
  // Supervision accounting across all flip tests.
  RunBudget budget;
  double seconds = 0;
  int benign_count = 0;
  int inconclusive_count = 0;
  bool ambiguous = false;
  // True when at least one flip test could not be completed: the diagnosis
  // is usable but partial, and the report says so.
  bool degraded = false;
};

class CausalityAnalysis {
 public:
  CausalityAnalysis(const KernelImage* image, std::vector<ThreadSpec> slice,
                    std::vector<ThreadSpec> setup, const LifsResult* lifs,
                    CausalityOptions options);

  CausalityResult Run();

 private:
  struct TestItem {
    RacePair race;
    bool phantom = false;
  };

  // Builds the flipped total order for one race (block move for executed
  // pairs, reference-stream splice for phantom pairs).
  TotalOrderSchedule BuildFlip(const TestItem& item) const;
  // Test items whose order this flip necessarily reverses.
  std::vector<size_t> NestedOf(const std::vector<TestItem>& items, size_t index) const;
  // True if `race` executed in `run` in its original order.
  static bool OccurredInOrder(const RacePair& race, const RunResult& run);
  // True if both sides of `race` retired in `run` (any order). A race whose
  // side vanished from the run "disappeared" via race-steered control flow.
  static bool BothSidesExecuted(const RacePair& race, const RunResult& run);

  const KernelImage* image_;
  std::vector<ThreadSpec> slice_;
  std::vector<ThreadSpec> setup_;
  const LifsResult* lifs_;
  CausalityOptions options_;
};

}  // namespace aitia

#endif  // SRC_CORE_CAUSALITY_H_
