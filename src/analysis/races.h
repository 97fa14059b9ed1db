// Happens-before analysis and data-race extraction over a run trace.
//
// Adopting the Linux-kernel memory-model definitions the paper uses (§2):
// two accesses *conflict* if they touch overlapping memory and at least one
// writes; a *data race* is a pair of conflicting accesses from different
// threads not ordered by synchronization (program order, lock release→acquire,
// thread spawn). Conflicting accesses covered by a common lock are not data
// races — they surface as *critical-section pairs*, which Causality Analysis
// flips as a unit (§3.4 "Liveness").

#ifndef SRC_ANALYSIS_RACES_H_
#define SRC_ANALYSIS_RACES_H_

#include <vector>

#include "src/sim/kernel.h"

namespace aitia {

struct RacePair {
  ExecEvent first;   // observed earlier (first.seq < second.seq)
  ExecEvent second;
  // True if this is a critical-section pair: both sides held `lock`, so the
  // flip unit is the whole critical section, not the single instruction.
  bool cs_pair = false;
  Addr lock = 0;
  // Event-seq spans of the two critical sections (valid when cs_pair).
  int64_t first_cs_begin = -1;
  int64_t first_cs_end = -1;
  int64_t second_cs_begin = -1;
  int64_t second_cs_end = -1;
};

struct RaceAnalysis {
  // Data races in observed order, sorted by second.seq (ascending).
  std::vector<RacePair> races;
  // Critical-section pairs (same sort), deduplicated per section pair.
  std::vector<RacePair> cs_pairs;
  // All conflicting cross-thread pairs, including lock-ordered ones —
  // the raw count a plain race detector would dump on the developer (§5.2).
  int64_t conflicting_pairs_total = 0;
};

// Computes the happens-before relation of `result.trace` and extracts races.
RaceAnalysis ExtractRaces(const RunResult& result);

// Full happens-before check between two event seqs of the same trace
// (a.seq < b.seq required for a positive answer). Used by ExtractRaces;
// public so tests can check the relation itself.
class HbRelation {
 public:
  explicit HbRelation(const RunResult& result);
  bool HappensBefore(int64_t seq_a, int64_t seq_b) const;

 private:
  // clocks_[seq][tid] = highest seq of `tid` ordered before (or equal to)
  // this event.
  std::vector<std::vector<int64_t>> clocks_;
  std::vector<ThreadId> event_tid_;
};

}  // namespace aitia

#endif  // SRC_ANALYSIS_RACES_H_
