#include "src/core/aitia.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/log.h"
#include "src/util/strings.h"

namespace aitia {

AitiaOptions& AitiaOptions::set_deadline(double seconds) {
  if (seconds > 0) {
    lifs.search_deadline_seconds = seconds;
    lifs.supervisor.deadline_seconds = seconds;
    causality.supervisor.deadline_seconds = seconds;
  }
  return *this;
}

AitiaOptions& AitiaOptions::set_cancel(std::function<bool()> cancel) {
  lifs.supervisor.cancel = cancel;
  causality.supervisor.cancel = std::move(cancel);
  return *this;
}

AitiaOptions& AitiaOptions::set_event_scope(uint64_t scope) {
  lifs.event_scope = scope;
  lifs.supervisor.event_scope = scope;
  causality.event_scope = scope;
  causality.supervisor.event_scope = scope;
  return *this;
}

std::string AitiaReport::Render(const KernelImage& image) const {
  std::string out;
  if (!diagnosed) {
    out += lifs.reproduced ? "AITIA: failure reproduced but NOT diagnosed"
                           : "AITIA: failure NOT reproduced";
    out += StrFormat(" (%zu slice(s) tried, %lld schedules)\n", slices_tried,
                     static_cast<long long>(lifs.schedules_executed));
    if (lifs.reproduced) {
      out += "failure    : " + lifs.failure->ToString() + "\n";
    }
    if (!status.ok()) {
      out += "status     : " + status.ToString() + "\n";
    }
    return out;
  }
  out += "=== AITIA diagnosis ===\n";
  if (degraded) {
    out += "*** DEGRADED: parts of the diagnosis exhausted their run budget ***\n";
  }
  out += "failure    : " + lifs.failure->ToString() + "\n";
  out += StrFormat("LIFS       : reproduced with %d interleaving(s), %lld schedule(s), %.3fs\n",
                   lifs.interleaving_count,
                   static_cast<long long>(lifs.schedules_executed), lifs.seconds);
  if (lifs.aborted_runs > 0) {
    out += StrFormat("             %lld run(s) lost to supervision [%s]\n",
                     static_cast<long long>(lifs.aborted_runs),
                     lifs.budget.ToString().c_str());
  }
  out += StrFormat("Causality  : %lld flip test(s), %.3fs\n",
                   static_cast<long long>(causality.schedules_executed), causality.seconds);
  if (causality.budget.exhausted > 0) {
    out += "             supervision: " + causality.budget.ToString() + "\n";
  }
  out += "\nfailure-causing instruction sequence (memory accesses):\n";
  for (const ExecEvent& e : lifs.failing_run.trace) {
    if (!e.is_access) {
      continue;
    }
    out += StrFormat("  [%4lld] T%d %s\n", static_cast<long long>(e.seq), e.di.tid,
                     image.Describe(e.di.at).c_str());
  }
  out += "\ntested data races (backward):\n";
  for (const TestedRace& t : causality.tested) {
    std::string marks;
    if (t.phantom) marks += " [phantom]";
    if (t.race.cs_pair) marks += " [critical-section]";
    if (!t.run_status.ok()) marks += " [run budget exhausted]";
    out += StrFormat("  %-28s %-12s%s\n", RaceLabel(image, t.race).c_str(),
                     RaceVerdictName(t.verdict), marks.c_str());
  }
  if (!causality.inconclusive_indices.empty()) {
    out += "\ninconclusive flip tests (run lost to supervision; these races are\n"
           "UNCLASSIFIED, not benign):\n";
    for (size_t i : causality.inconclusive_indices) {
      const TestedRace& t = causality.tested[i];
      out += StrFormat("  %-28s %s\n", RaceLabel(image, t.race).c_str(),
                       t.run_status.ToString().c_str());
    }
  }
  out += "\ncausality chain:\n  " + causality.chain.Render(image) + "\n";
  return out;
}

namespace {

// Folds stage-level health into the report: LIFS aborts or inconclusive flip
// tests mark the report degraded, and a search cut short surfaces as the
// report status so "NOT reproduced" is distinguishable from "ran out of
// budget while trying".
void FinalizeReport(AitiaReport& report) {
  if (report.causality.degraded || report.lifs.aborted_runs > 0) {
    report.degraded = true;
  }
  if (!report.lifs.status.ok()) {
    report.status = report.lifs.status;
    report.degraded = true;
  }
  // The root cause is a chain of race orders (§3). A failure that reproduced
  // and whose every flip test settled, yet no flip prevents it (a thread
  // deadlocking on itself, a refcount underflow in one thread), needs no
  // race: it is not a diagnosed concurrency failure.
  if (report.diagnosed && !report.causality.degraded &&
      report.causality.chain.nodes().empty()) {
    report.diagnosed = false;
    report.degraded = false;
    report.status = Status::FailedPrecondition("no race flip prevents the failure");
  }
}

AitiaReport DiagnoseSliceImpl(const KernelImage& image, const std::vector<ThreadSpec>& slice,
                              const std::vector<ThreadSpec>& setup,
                              const AitiaOptions& options) {
  AitiaReport report;
  report.slices_tried = 1;
  report.used_slice.threads = slice;
  report.used_slice.setup = setup;

  Lifs lifs(&image, slice, setup, options.lifs);
  report.lifs = lifs.Run();
  if (!report.lifs.reproduced) {
    FinalizeReport(report);
    return report;
  }
  CausalityAnalysis ca(&image, slice, setup, &report.lifs, options.causality);
  report.causality = ca.Run();
  report.diagnosed = true;
  FinalizeReport(report);
  return report;
}

AitiaReport DiagnoseHistoryImpl(const KernelImage& image, const ExecutionHistory& history,
                                const AitiaOptions& options) {
  AitiaReport report;
  std::vector<Slice> slices = BuildSlices(history, options.slicer);
  if (slices.size() > options.max_slices) {
    slices.resize(options.max_slices);
  }

  AitiaOptions slice_options = options;
  if (history.failure.has_value() && !slice_options.lifs.target.has_value()) {
    slice_options.lifs.target = history.failure->failure;
  }

  for (const Slice& slice : slices) {
    ++report.slices_tried;
    Lifs lifs(&image, slice.threads, slice.setup, slice_options.lifs);
    LifsResult result = lifs.Run();
    if (!result.reproduced) {
      // Remember why the most recent attempt came up empty; budget-cut
      // searches must not read as clean non-reproduction.
      if (!result.status.ok()) {
        report.status = result.status;
        report.degraded = true;
      }
      continue;
    }
    report.used_slice = slice;
    report.lifs = std::move(result);
    CausalityAnalysis ca(&image, slice.threads, slice.setup, &report.lifs,
                         slice_options.causality);
    report.causality = ca.Run();
    report.diagnosed = true;
    FinalizeReport(report);
    return report;
  }
  return report;
}

}  // namespace

AitiaReport DiagnoseSlice(const KernelImage& image, const std::vector<ThreadSpec>& slice,
                          const std::vector<ThreadSpec>& setup, const AitiaOptions& options) {
  // Per-diagnosis metrics as a delta of the process-wide registry (see
  // AitiaReport::metrics). Observability stays read-side — nothing below
  // consults the registry or the tracer to make a decision.
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  AitiaReport report;
  {
    obs::Span span("pipeline", "aitia.diagnose_slice");
    report = DiagnoseSliceImpl(image, slice, setup, options);
    span.Arg("diagnosed", report.diagnosed)
        .Arg("degraded", report.degraded)
        .Arg("slices_tried", static_cast<int64_t>(report.slices_tried));
  }
  report.metrics = obs::MetricsRegistry::Global().Snapshot().Delta(before);
  return report;
}

AitiaReport DiagnoseHistory(const KernelImage& image, const ExecutionHistory& history,
                            const AitiaOptions& options) {
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  AitiaReport report;
  {
    obs::Span span("pipeline", "aitia.diagnose_history");
    report = DiagnoseHistoryImpl(image, history, options);
    span.Arg("diagnosed", report.diagnosed)
        .Arg("degraded", report.degraded)
        .Arg("slices_tried", static_cast<int64_t>(report.slices_tried));
  }
  report.metrics = obs::MetricsRegistry::Global().Snapshot().Delta(before);
  return report;
}

}  // namespace aitia
