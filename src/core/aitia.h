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

#include <string>
#include <vector>

#include "src/core/causality.h"
#include "src/core/lifs.h"
#include "src/hv/diag_context.h"
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
  // This diagnosis's own lifs.*, causality.* and supervisor.* counts, copied
  // from its DiagContext: exact at any concurrency, and summed over every
  // slice a history diagnosis tried.
  obs::MetricsSnapshot metrics;

  // Full human-readable diagnosis (races, verdicts, chain).
  std::string Render(const KernelImage& image) const;
};

// Both entry points run one diagnosis under `ctx` (src/hv/diag_context.h):
// its deadline and cancel probe bound every stage — expiry degrades the
// report (kInconclusive flips, a non-ok status) instead of wedging the
// caller — and its frame queue, if any, receives every stage's frames. A
// caller that passes none gets a fresh context. The context's counts become
// AitiaReport::metrics and are merged into the process-wide registry once.

// Diagnoses a known concurrent group directly (skips modeling).
AitiaReport DiagnoseSlice(const KernelImage& image, const std::vector<ThreadSpec>& slice,
                          const std::vector<ThreadSpec>& setup, const AitiaOptions& options = {},
                          DiagContext* ctx = nullptr);

// The full pipeline from a bug-finder's execution history. One context
// serves every slice it tries.
AitiaReport DiagnoseHistory(const KernelImage& image, const ExecutionHistory& history,
                            const AitiaOptions& options = {}, DiagContext* ctx = nullptr);

}  // namespace aitia

#endif  // SRC_CORE_AITIA_H_
