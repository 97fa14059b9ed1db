// Static race triage: the pre-filter stage pipeline of Causality Analysis
// (DESIGN.md §13).
//
// Causality Analysis (§3.4) pays one full supervised re-execution per
// candidate race. Many candidates can be classified *statically* from the
// already-recorded failing trace: pairs whose flip provably replays an
// observation-equivalent run (the failure recurs — benign), pairs guarded by
// a common lock (the flip unit is the whole critical section), and phantom
// pairs whose spliced thread cannot exist at the splice point (the flip
// degenerates to replaying the original order).
//
// The contract is strict conservatism: a stage may return kProvablyBenign
// ONLY when it predicts the dynamic flip's verdict exactly — same verdict,
// same flip_took_effect/flip_still_failed bits, same disappearance set. A
// corpus-wide differential test (pre-filter on/off) holds the
// pipeline to bit-identical chains, verdicts, and root-cause sets; anything
// a stage cannot *prove* must come back kUnknown and pay for the flip.
//
// Three stages ship by default, in order:
//   hb       vector-clock happens-before + flip-commutation analysis over
//            executed pairs (silent stores, dead reads);
//   lockset  critical-section pairs: annotates the flip as a one-unit move
//            (pre-computing what BuildFlip discovers dynamically);
//   mhp      may-happen-in-parallel over thread create/IRQ structure for
//            phantom pairs (a splice before the spawn point cannot execute).
//
// The dynamic flip test is the implicit final stage: every candidate no
// static stage discharges is re-executed exactly as before.

#ifndef SRC_ANALYSIS_TRIAGE_H_
#define SRC_ANALYSIS_TRIAGE_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/races.h"
#include "src/sim/kernel.h"
#include "src/util/status.h"

namespace aitia {
namespace analysis {

enum class TriageVerdict {
  kMustFlip,             // positively requires the dynamic flip test
  kProvablyBenign,       // flip outcome proven: benign, skip the re-execution
  kCriticalSectionUnit,  // flips as one critical-section unit (annotation)
  kUnknown,              // static info insufficient — the flip decides
};

const char* TriageVerdictName(TriageVerdict verdict);

struct TriageCandidate {
  RacePair race;
  bool phantom = false;
};

struct TriageDecision {
  TriageVerdict verdict = TriageVerdict::kUnknown;
  // Name of the deciding stage ("" while no stage was decisive).
  std::string stage;
  // Human-readable proof sketch (or why the stage abstained).
  std::string reason;
};

// Immutable per-trace facts shared by all stages: the failing run, its
// vector clocks, spawn structure, and IRQ contexts. Built once per analysis.
class TriageContext {
 public:
  // `irq_threads` maps IRQ-context thread ids of the failing run (may be
  // nullptr when the caller has none). Pointers are borrowed, not owned.
  TriageContext(const KernelImage* image, const RunResult* failing_run,
                const std::map<ThreadId, std::pair<ProgramId, Word>>* irq_threads);

  const KernelImage& image() const { return *image_; }
  const RunResult& run() const { return *run_; }
  const HbRelation& hb() const { return hb_; }
  // Sequence of the queue_work/call_rcu that created `tid`; -1 when `tid`
  // was never spawned during the failing run (base slice thread, IRQ
  // context, or a thread that exists only in reference runs).
  int64_t SpawnSeqOf(ThreadId tid) const;
  // True when `tid` is a hardware-IRQ context (the enforcer injects those on
  // first reference instead of replaying a spawn edge).
  bool IsIrqContext(ThreadId tid) const;
  // Seq of the last trace event (-1 for an empty trace).
  int64_t last_seq() const { return last_seq_; }

 private:
  const KernelImage* image_;
  const RunResult* run_;
  HbRelation hb_;
  std::map<ThreadId, int64_t> spawn_seq_;
  std::map<ThreadId, std::pair<ProgramId, Word>> irq_threads_;
  int64_t last_seq_ = -1;
};

// One static triage stage. Stages are stateless and const: one instance is
// shared freely across analyses and worker threads.
class TriageStage {
 public:
  virtual ~TriageStage() = default;
  virtual const char* name() const = 0;
  // Classifies one candidate. Must be conservative: kProvablyBenign only
  // with an exact prediction of the dynamic flip outcome.
  virtual TriageDecision Classify(const TriageContext& ctx,
                                  const TriageCandidate& candidate) const = 0;
};

std::shared_ptr<const TriageStage> MakeHbStage();
std::shared_ptr<const TriageStage> MakeLocksetStage();
std::shared_ptr<const TriageStage> MakeMhpStage();

// An ordered stage pipeline; the first decisive (non-kUnknown) stage wins.
using TriagePipeline = std::vector<std::shared_ptr<const TriageStage>>;

// The default static pipeline: {hb, lockset, mhp}.
TriagePipeline DefaultTriagePipeline();

// Parses a --triage spec, e.g. "hb,lockset,mhp" (order preserved, no
// duplicates); "" and "none" yield an empty pipeline (pre-filter off).
// Unknown stage names are an error listing the valid ones.
StatusOr<TriagePipeline> TriagePipelineFromSpec(const std::string& spec);

// Runs `candidate` through the pipeline; returns the first decisive stage's
// decision (with `stage` filled in), or kUnknown with stage "" when every
// stage abstains.
TriageDecision RunTriage(const TriagePipeline& pipeline, const TriageContext& ctx,
                         const TriageCandidate& candidate);

}  // namespace analysis
}  // namespace aitia

#endif  // SRC_ANALYSIS_TRIAGE_H_
