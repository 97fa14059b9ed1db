// AITIA's public entry points (§4.1).
//
// The full workflow mirrors the paper:
//
//   1. Input: an ExecutionHistory (timestamped syscall traces + failure
//      info) from a bug-finding system (src/fuzz), or a hand-picked slice.
//   2. Modeling: the history is split into slices (src/trace).
//   3. Reproducing: LIFS searches each slice — backward from the failure —
//      until one reproduces the reported symptom.
//   4. Diagnosing: Causality Analysis flips each data race of the
//      failure-causing sequence and classifies it.
//   5. Output: a causality chain with instruction-level information.

#ifndef SRC_CORE_AITIA_H_
#define SRC_CORE_AITIA_H_

#include <functional>
#include <string>
#include <vector>

#include "src/core/causality.h"
#include "src/core/lifs.h"
#include "src/obs/metrics.h"
#include "src/trace/history.h"
#include "src/trace/slicer.h"

namespace aitia {

struct AitiaOptions {
  LifsOptions lifs;
  CausalityOptions causality;
  SlicerOptions slicer;
  // > 1 launches reproducers for all candidate slices in parallel (the
  // paper's multi-VM reproducing stage); 1 tries slices sequentially,
  // backward from the failure, stopping at the first reproduction.
  size_t reproducer_workers = 1;
  // Cap on candidate slices attempted.
  size_t max_slices = 16;

  // Applies one worker count to every parallel stage of the pipeline: LIFS
  // frontier exploration, causality flip tests, and the slice reproducers.
  // 0 resolves to the hardware concurrency (the CLI's --jobs flag lands
  // here). Per-stage fields can still be set individually afterwards.
  AitiaOptions& set_jobs(size_t jobs);

  // Applies one wall-clock budget (seconds) across the pipeline: the LIFS
  // search deadline plus the per-run supervisor deadlines of both stages.
  // Expiry degrades the diagnosis (kInconclusive flips, non-ok report
  // status) instead of wedging the caller; 0 is a no-op.
  AitiaOptions& set_deadline(double seconds);

  // Installs one cooperative cancellation probe on both supervised stages
  // (see SupervisorOptions::cancel). The service layer points this at its
  // drain flag so in-flight diagnoses deadline-out instead of blocking exit.
  AitiaOptions& set_cancel(std::function<bool()> cancel);

  // Toggles the static triage pre-filter in front of Causality Analysis's
  // dynamic flip tests (DESIGN.md §13). On restores the default stage
  // pipeline {hb, lockset, mhp}; off clears it so every candidate flips (the
  // CLI's --no-prefilter flag lands here). Chains and verdicts are
  // bit-identical either way; only the re-execution count changes.
  AitiaOptions& set_prefilter(bool enabled);

  // Replaces the triage pipeline with the stages named in `spec` (see
  // analysis::TriagePipelineFromSpec; the CLI's --triage flag lands here).
  Status set_triage(const std::string& spec);

  // Tags every stage of this diagnosis with one progress-event scope
  // (src/obs/events.h) so the daemon's streaming relay sees only its own
  // request's lifecycle events. 0 (the default) publishes nothing; events
  // are pure write-side observability either way.
  AitiaOptions& set_event_scope(uint64_t scope);
};

struct AitiaReport {
  bool diagnosed = false;
  // True when the diagnosis is partial: at least one flip test exhausted its
  // run budget (verdict kInconclusive) or the reproducing stage was cut
  // short. The chain is still valid for the races that were classified.
  bool degraded = false;
  // Pipeline-level health; non-ok explains a false `diagnosed` that was due
  // to budget/deadline exhaustion rather than genuine non-reproduction.
  // kInvalidArgument means the scenario itself cannot run (its setup phase
  // faulted or outran its step budget).
  Status status;
  size_t slices_tried = 0;
  Slice used_slice;
  LifsResult lifs;
  CausalityResult causality;
  // Metrics delta covering exactly this diagnosis: the facade snapshots the
  // process-wide registry before the pipeline and subtracts it after, so
  // reports stay accurate when many diagnoses share one process.
  obs::MetricsSnapshot metrics;

  // Full human-readable diagnosis (races, verdicts, chain).
  std::string Render(const KernelImage& image) const;
};

// Diagnoses a known concurrent group directly (skips modeling).
AitiaReport DiagnoseSlice(const KernelImage& image, const std::vector<ThreadSpec>& slice,
                          const std::vector<ThreadSpec>& setup, const AitiaOptions& options = {});

// The full pipeline from a bug-finder's execution history.
AitiaReport DiagnoseHistory(const KernelImage& image, const ExecutionHistory& history,
                            const AitiaOptions& options = {});

}  // namespace aitia

#endif  // SRC_CORE_AITIA_H_
