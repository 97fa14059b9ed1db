// Raw failure statistics: what a plain data-race detector / failure
// reproducer would dump on the developer (§5.2 conciseness comparison).

#ifndef SRC_BASELINES_RACECOUNT_H_
#define SRC_BASELINES_RACECOUNT_H_

#include "src/analysis/races.h"
#include "src/sim/kernel.h"

namespace aitia {

struct RawRaceStats {
  // Memory-accessing instruction instances in the failed execution.
  int64_t memory_accessing_instructions = 0;
  // Individual data races (distinct static instruction pairs).
  int64_t data_races = 0;
  // Dynamic conflicting pairs, including lock-ordered ones.
  int64_t conflicting_pairs = 0;
};

RawRaceStats CountRawRaces(const RunResult& failing_run);

}  // namespace aitia

#endif  // SRC_BASELINES_RACECOUNT_H_
