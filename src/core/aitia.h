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
  // Cap on candidate slices attempted. Slices are tried one after another,
  // backward from the failure, stopping at the first reproduction.
  size_t max_slices = 16;

  // Applies one wall-clock budget (seconds) across the pipeline: the LIFS
  // search deadline plus the per-run supervisor deadlines of both stages.
  // Expiry degrades the diagnosis (kInconclusive flips, non-ok report
  // status) instead of wedging the caller; 0 is a no-op.
  AitiaOptions& set_deadline(double seconds);

  // Installs one cooperative cancellation probe on both supervised stages
  // (see SupervisorOptions::cancel). The service layer points this at its
  // drain flag so in-flight diagnoses deadline-out instead of blocking exit.
  AitiaOptions& set_cancel(std::function<bool()> cancel);

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
  // faulted or outran its step budget). kFailedPrecondition means the
  // failure reproduced but no race flip prevents it (an empty chain), so
  // there is no concurrency failure to diagnose.
  Status status;
  size_t slices_tried = 0;
  Slice used_slice;
  LifsResult lifs;
  CausalityResult causality;
  // Delta of the process-wide metrics registry: the facade snapshots it
  // before the pipeline and subtracts it after. While other diagnoses run in
  // the same process their counts land in this delta too, so it is exact
  // only for a diagnosis that ran alone (a per-diagnosis ledger is on the
  // ROADMAP).
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
