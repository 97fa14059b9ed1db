// Shared machinery of the perfbench binary: percentiles, the span recorder,
// the per-layer tallies, and the serial closed loop that the corpus and
// sweep workloads run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/bugs/diagnose.h"
#include "src/obs/metrics.h"

namespace perfbench {

void Outcome::Fail(std::string note) {
  ++failed;
  if (failure_notes.size() < 10) {
    failure_notes.push_back(std::move(note));
  }
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  rank = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank), values.end());
  return values[rank];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

// --- span recorder ------------------------------------------------------------

void SpanRecorder::AddDiagnosis(int64_t op, int parent, Clock::time_point start,
                                Clock::time_point end, const aitia::AitiaReport& report) {
  const int facade = Add("facade", op, parent, start, end);
  const double t0 = Us(start);
  const double lifs_end = t0 + report.lifs.seconds * 1e6;
  Add("lifs", op, facade, t0, lifs_end);
  Add("ca", op, facade, lifs_end, lifs_end + report.causality.seconds * 1e6);
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "{\"traceEvents\": [\n";
  std::vector<int> depth(spans_.size(), 0);  // one trace row per nesting level
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    depth[i] = s.parent < 0 ? 0 : depth[static_cast<size_t>(s.parent)] + 1;
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"ph\": \"X\", \"name\": \"%s\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                  "\"tid\": %d, \"args\": {\"op\": %lld, \"parent\": %d}}%s\n",
                  s.name, s.start_us, s.end_us - s.start_us, depth[i],
                  static_cast<long long>(s.op), s.parent, i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// --- registry and result-struct tallies ---------------------------------------

CkptCounters CkptCounters::Read() {
  const aitia::obs::MetricsSnapshot snap = aitia::obs::MetricsRegistry::Global().Snapshot();
  CkptCounters c;
  c.present = snap.counters.count("ckpt.hits") != 0;
  c.hits = snap.counter("ckpt.hits");
  c.misses = snap.counter("ckpt.misses");
  c.executed_steps = snap.counter("ckpt.executed_steps");
  c.replayed_steps = snap.counter("ckpt.replayed_steps");
  c.evictions = snap.counter("ckpt.evictions");
  return c;
}

CkptCounters CkptCounters::Minus(const CkptCounters& since) const {
  CkptCounters d;
  d.present = present;
  d.hits = hits - since.hits;
  d.misses = misses - since.misses;
  d.executed_steps = executed_steps - since.executed_steps;
  d.replayed_steps = replayed_steps - since.replayed_steps;
  d.evictions = evictions - since.evictions;
  return d;
}

void CkptCounters::Accumulate(const CkptCounters& delta) {
  present = present || delta.present;
  hits += delta.hits;
  misses += delta.misses;
  executed_steps += delta.executed_steps;
  replayed_steps += delta.replayed_steps;
  evictions += delta.evictions;
}

void DiagTally::Add(const aitia::AitiaReport& report, double facade_seconds) {
  ++ops;
  facade_s += facade_seconds;
  lifs_s += report.lifs.seconds;
  if (!report.lifs.reproduced) {
    lifs_exhaustive_s += report.lifs.seconds;
  }
  ca_s += report.causality.seconds;
  steps += report.lifs.budget.steps + report.causality.budget.steps;
  runs += report.lifs.budget.attempts + report.causality.budget.attempts;
  schedules += report.lifs.schedules_executed;
  pruned += report.lifs.schedules_pruned;
  flips += report.causality.schedules_executed;
  flips_skipped += report.causality.flips_skipped;
}

void DiagTally::Emit(std::vector<Metric>& out) const {
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double n = static_cast<double>(ops);
  out.push_back({"sim.steps_per_op", ratio(static_cast<double>(steps), n), "count"});
  out.push_back({"hv.runs_per_op", ratio(static_cast<double>(runs), n), "count"});
  out.push_back({"sim.steps_per_s", ratio(static_cast<double>(steps), lifs_s + ca_s), "1/s"});
  out.push_back({"hv.us_per_run", ratio((lifs_s + ca_s) * 1e6, static_cast<double>(runs)), "us"});
  out.push_back({"lifs.ms_per_op", ratio(lifs_s * 1e3, n), "ms"});
  out.push_back({"lifs.schedules_per_op", ratio(static_cast<double>(schedules), n), "count"});
  out.push_back({"lifs.pruned_share",
                 ratio(static_cast<double>(pruned), static_cast<double>(schedules + pruned)),
                 "ratio"});
  out.push_back({"lifs.schedules_per_s", ratio(static_cast<double>(schedules), lifs_s), "1/s"});
  out.push_back({"lifs.exhaustive_share", ratio(lifs_exhaustive_s, lifs_s), "ratio"});
  out.push_back({"ca.ms_per_op", ratio(ca_s * 1e3, n), "ms"});
  out.push_back({"ca.flips_per_op", ratio(static_cast<double>(flips), n), "count"});
  out.push_back({"ca.flips_per_s", ratio(static_cast<double>(flips), ca_s), "1/s"});
  out.push_back({"triage.skip_share",
                 ratio(static_cast<double>(flips_skipped),
                       static_cast<double>(flips + flips_skipped)),
                 "ratio"});
  if (ckpt.present) {
    out.push_back({"ckpt.hit_share",
                   ratio(static_cast<double>(ckpt.hits),
                         static_cast<double>(ckpt.hits + ckpt.misses)),
                   "ratio"});
    out.push_back({"ckpt.replayed_share",
                   ratio(static_cast<double>(ckpt.replayed_steps),
                         static_cast<double>(ckpt.replayed_steps + ckpt.executed_steps)),
                   "ratio"});
    out.push_back({"ckpt.evictions_per_op", ratio(static_cast<double>(ckpt.evictions), n),
                   "count"});
  }
  out.push_back({"facade.self_ms_per_op", ratio((facade_s - lifs_s - ca_s) * 1e3, n), "ms"});
  out.push_back({"lifs.share", ratio(lifs_s, facade_s), "ratio"});
  out.push_back({"ca.share", ratio(ca_s, facade_s), "ratio"});
}

// --- serial closed loop -------------------------------------------------------

void RunSerialLoop(const Config& config, int64_t block,
                   const std::function<SerialOp(int64_t)>& op_of,
                   const std::function<std::string(int64_t, const aitia::AitiaReport&)>& check,
                   const std::function<void()>& between, Outcome& out, DiagTally& tally,
                   SpanRecorder& spans) {
  double untraced_s = 0;
  double traced_s = 0;
  Clock::time_point last_between = Clock::now();
  for (int64_t b = 0; untraced_s + traced_s < config.seconds; ++b) {
    if (b > 0 && Seconds(last_between, Clock::now()) >= kBetweenSeconds) {
      between();
      last_between = Clock::now();
    }
    for (int copy = 0; copy < (config.trace ? 2 : 1); ++copy) {
      const bool traced = config.trace && (b + copy) % 2 == 1;
      const CkptCounters ckpt_before = traced ? CkptCounters::Read() : CkptCounters{};
      double paused_s = 0;  // output checks, kept out of the timed phase
      const Clock::time_point block_start = Clock::now();
      for (int64_t k = 0; k < block; ++k) {
        const int64_t op = b * block + k;
        const SerialOp o = op_of(op);
        const Clock::time_point t0 = Clock::now();
        const aitia::AitiaReport report = aitia::DiagnoseScenario(*o.scenario, *o.options);
        const Clock::time_point t1 = Clock::now();
        const std::string error = check(op, report);
        paused_s += Seconds(t1, Clock::now());
        ++out.attempted;
        if (!error.empty()) {
          out.Fail(error);
        }
        if (traced) {  // the tracing cost stays in the traced block's time
          spans.AddDiagnosis(op, -1, t0, t1, report);
          tally.Add(report, Seconds(t0, t1));
        } else {
          out.latency_ms.push_back(error.empty() ? Seconds(t0, t1) * 1e3
                                                 : std::numeric_limits<double>::infinity());
        }
      }  // the report is destroyed inside the timed phase, as a caller's would be
      const double block_s = Seconds(block_start, Clock::now()) - paused_s;
      if (traced) {
        traced_s += block_s;
        tally.ckpt.Accumulate(CkptCounters::Read().Minus(ckpt_before));
      } else {
        untraced_s += block_s;
        out.timed_ops += block;
        out.block_s.push_back(block_s);
      }
    }
  }
  out.timed_s = untraced_s;
  out.block_ops = block;
  if (config.trace) {
    tally.Emit(out.layers);
    out.layers.push_back({"trace.overhead_share", OverheadShare(untraced_s, traced_s), "ratio"});
  }
}

}  // namespace perfbench
