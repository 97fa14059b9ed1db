// Shared pieces of the perfbench binary: run configuration, the per-run
// outcome each workload hands back, the span recorder used by traced runs,
// and the per-layer tallies built from the program's own result structs.
//
// The binary reaches the program only through its public entry points
// (DiagnoseScenario, svc::Daemon::Submit/HandleLine, gen::GenerateScenario,
// ScenarioToAit/ScenarioFromAitText, ReportToJson) and the metrics-registry
// snapshot, so a refactor behind them is measured by an unchanged benchmark.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/bugs/scenario.h"
#include "src/core/aitia.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Chrome-trace file the traced run writes its spans to; empty writes none.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// One layer's interval inside one operation. Spans of one operation share
// `op`; `parent` indexes the enclosing span (-1 for the operation's root).
struct Span {
  const char* name = "";
  int64_t op = 0;
  int parent = -1;
  double start_us = 0;
  double end_us = 0;
};

// In-memory span log for traced runs, written out once the run ends.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  double Us(Clock::time_point t) const { return Seconds(epoch_, t) * 1e6; }

  // Records [start, end) and returns its index for use as a parent.
  int Add(const char* name, int64_t op, int parent, double start_us, double end_us) {
    spans_.push_back({name, op, parent, start_us, end_us});
    return static_cast<int>(spans_.size()) - 1;
  }
  int Add(const char* name, int64_t op, int parent, Clock::time_point start,
          Clock::time_point end) {
    return Add(name, op, parent, Us(start), Us(end));
  }

  // Places a facade span with LIFS and CA children laid end to end from the
  // report's own stage timers (the stages run in that order inside it).
  void AddDiagnosis(int64_t op, int parent, Clock::time_point start, Clock::time_point end,
                    const aitia::AitiaReport& report);

  // Chrome trace-event JSON (load in about:tracing or ui.perfetto.dev).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Counters from the process-wide metrics registry that only the checkpoint
// engine (src/ckpt) publishes. Read by name, so the benchmark keeps
// building once that engine is gone; `present` turns false then.
struct CkptCounters {
  bool present = false;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t executed_steps = 0;
  int64_t replayed_steps = 0;
  int64_t evictions = 0;

  static CkptCounters Read();
  // this - since, field by field.
  CkptCounters Minus(const CkptCounters& since) const;
  void Accumulate(const CkptCounters& delta);
};

// Per-diagnosis layer accounting. Counts come from LifsResult,
// CausalityResult and their RunBudgets; times from the facade span and the
// report's stage timers. Never from AitiaReport::metrics, which mixes
// counts across diagnoses that run concurrently.
struct DiagTally {
  int64_t ops = 0;
  double facade_s = 0;
  double lifs_s = 0;
  double lifs_exhaustive_s = 0;  // LIFS time of searches that never reproduced
  double ca_s = 0;
  int64_t steps = 0;
  int64_t runs = 0;
  int64_t schedules = 0;
  int64_t pruned = 0;
  int64_t flips = 0;
  int64_t flips_skipped = 0;
  CkptCounters ckpt;  // registry deltas over the traced operations

  void Add(const aitia::AitiaReport& report, double facade_seconds);
  // Appends the sim/hv/lifs/ca/triage/ckpt/facade metrics.
  void Emit(std::vector<Metric>& out) const;
};

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failure_notes;  // the first few, for stderr
  // Wall time of each repetition of the set-up phase.
  std::vector<double> setup_s;
  // Timed phase: operations completed and the seconds they took, and the
  // duration of each block (one full mix cycle of `block_ops` operations).
  // throughput_per_s is block_ops over the median block duration, so a burst
  // of interference from outside the process moves one block, not the figure.
  int64_t timed_ops = 0;
  double timed_s = 0;
  int64_t block_ops = 0;
  std::vector<double> block_s;
  std::vector<double> latency_ms;  // one per timed operation
  std::vector<Metric> layers;      // traced runs only
  // Extra "key": <json value> pairs for the run's detail line.
  std::vector<std::pair<std::string, std::string>> detail;

  void Fail(std::string note);
};

// `s` as a quoted JSON string.
std::string JsonString(const std::string& s);

// Nearest-rank percentile (0 < p <= 1) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// Returns 1 - untraced/traced throughput for equal operation counts, given
// the seconds each mode took.
inline double OverheadShare(double untraced_s, double traced_s) {
  return traced_s <= 0 ? 0 : 1.0 - untraced_s / traced_s;
}

// One diagnosis of the serial closed loop.
struct SerialOp {
  const aitia::BugScenario* scenario = nullptr;
  const aitia::AitiaOptions* options = nullptr;
};

// The corpus and sweep loop: one thread diagnoses operation 0, 1, 2, ...
// through DiagnoseScenario, each as soon as the previous one returns, in
// blocks of `block` operations (one full mix cycle, so every block has the
// same composition). It stops at the first block boundary after `seconds`
// of timed phase. `check` runs outside the timed region and returns an
// error text, empty when the operation's output is correct.
//
// A traced run executes every block twice in a row, once untraced and once
// traced, alternating which goes first; the traced copy feeds `tally` and
// `spans`, and the two copies' times give trace.overhead_share.
//
// `between` runs between blocks, outside the timed phase, at most every
// kBetweenSeconds; the workloads repeat their set-up there, so setup_s
// samples the host across the whole run rather than in its first second.
inline constexpr double kBetweenSeconds = 0.5;
void RunSerialLoop(const Config& config, int64_t block,
                   const std::function<SerialOp(int64_t)>& op_of,
                   const std::function<std::string(int64_t, const aitia::AitiaReport&)>& check,
                   const std::function<void()>& between, Outcome& out, DiagTally& tally,
                   SpanRecorder& spans);

Outcome RunCorpus(const Config& config);
Outcome RunSweep(const Config& config);
Outcome RunDaemon(const Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
