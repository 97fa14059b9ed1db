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
// both turn out to be root causes (Figure 7). Flip tests run one after
// another in index order on the calling thread.

#ifndef SRC_CORE_CAUSALITY_H_
#define SRC_CORE_CAUSALITY_H_

#include <cstddef>
#include <vector>

#include "src/analysis/races.h"
#include "src/core/chain.h"
#include "src/core/lifs.h"
#include "src/hv/enforcer.h"
#include "src/hv/supervisor.h"
#include "src/util/status.h"

namespace aitia {

struct CausalityOptions {
  int64_t max_steps_per_run = 200000;
  size_t max_tests = 256;
  // Supervised execution of flip tests: deadline, cancellation, watchdog.
  // `supervisor.max_steps` is overridden by max_steps_per_run. A flip test
  // whose run is lost is reported kInconclusive — never benign.
  SupervisorOptions supervisor;
  // Progress-event scope (src/obs/events.h): nonzero tags flip-tested /
  // verdict events for streaming subscribers; 0 publishes nothing.
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
  // Health of the flip run: non-ok when supervision lost it (deadline,
  // cancellation, livelock) and the verdict is kInconclusive.
  Status run_status;
  bool flip_still_failed = false;
  bool flip_took_effect = false;
  // Indices (into CausalityResult::tested) of races that did not occur in
  // this race's flipped run.
  std::vector<size_t> disappeared;
  // Indices of races necessarily reversed alongside this flip (nested).
  std::vector<size_t> nested;
};

struct CausalityResult {
  std::vector<TestedRace> tested;  // backward order (latest race first)
  std::vector<size_t> root_cause_indices;
  // Flip tests whose run budget was exhausted (verdict kInconclusive with a
  // non-ok run_status) — the report must surface these as unclassified.
  std::vector<size_t> inconclusive_indices;
  CausalityChain chain;
  // Flip runs executed: one per tested race, so == tested.size().
  int64_t schedules_executed = 0;
  // Always 0: every tested race is flipped. Kept only because the benchmark
  // driver still reads it.
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
